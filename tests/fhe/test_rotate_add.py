"""``rotate_add`` — ``ct + sum_r rot_r(ct)`` with one hoist and one
ModDown — and the radix-4 reductions ``rotate_sum`` / ``replicate`` built
on it: plaintext window sums at every width, bit identity across the
compute backends, and an error no worse than twice the log-tree's."""

import numpy as np
import pytest

from repro import engine
from repro.fhe import CkksContext, CkksParameters, SlotLayout
from repro.fhe.packing import replicate, rotate_sum, rotation_groups


def _pw54() -> CkksParameters:
    """The 54-bit paper word on a toy ring (``bench.workloads.pw54``)."""
    return CkksParameters._build(ring_degree=1 << 10, scale_bits=50,
                                 prime_bits=54, max_level=5, boot_levels=2,
                                 dnum=2, fft_iterations=1)


PRESETS = {"toy": CkksParameters.toy, "pw54": _pw54}
WIDTHS = [1, 2, 4, 8, 16, 32, 64]


@pytest.fixture(scope="module")
def ctx():
    return CkksContext.toy(seed=51)


def _window_sums(x: np.ndarray, width: int, sign: int = -1) -> np.ndarray:
    """Slot i: the sum of the ``width`` slots from i on (``sign=-1``) or
    up to i (``sign=1``), cyclically."""
    return sum(np.roll(x, sign * j) for j in range(width))


def test_groups_are_radix_4_with_a_radix_2_tail():
    assert [rotation_groups(w) for w in WIDTHS] == [
        [], [[1]], [[1, 2, 3]], [[1, 2, 3], [4]], [[1, 2, 3], [4, 8, 12]],
        [[1, 2, 3], [4, 8, 12], [16]], [[1, 2, 3], [4, 8, 12], [16, 32, 48]]]
    for bad in (0, 3, 12):
        with pytest.raises(ValueError, match="power of two"):
            rotation_groups(bad)


@pytest.mark.parametrize("width", WIDTHS)
def test_rotate_sum_is_the_window_sum_and_window_local(ctx, width):
    layout = SlotLayout.for_params(ctx.params, width)
    rng = np.random.default_rng(width)
    windows = [rng.uniform(-1, 1, width) for _ in range(layout.capacity)]
    packed = layout.pack_many(windows)
    out = ctx.decrypt(layout.rotate_sum(ctx.evaluator,
                                        ctx.encrypt(packed))).real
    assert np.max(np.abs(out - _window_sums(packed, width))) < 1e-3
    firsts = [w[0] for w in layout.unpack_many(out, layout.capacity, 1)]
    assert np.max(np.abs(np.subtract(firsts, [w.sum() for w in windows]))) \
        < 1e-3


@pytest.mark.parametrize("width", WIDTHS)
def test_replicate_broadcasts_each_window_within_it(ctx, width):
    layout = SlotLayout.for_params(ctx.params, width)
    heads = np.random.default_rng(width).uniform(-1, 1, layout.capacity)
    packed = layout.pack_many([[h] for h in heads])
    out = ctx.decrypt(replicate(ctx.evaluator, ctx.encrypt(packed),
                                width)).real
    assert np.max(np.abs(out - _window_sums(packed, width, sign=1))) < 1e-3
    for head, window in zip(heads, layout.unpack_many(out,
                                                      layout.capacity)):
        assert np.max(np.abs(window - head)) < 1e-3


def test_rotate_add_is_the_sum_of_the_rotations(ctx):
    ev, n = ctx.evaluator, ctx.params.num_slots
    x = np.random.default_rng(3).uniform(-1, 1, n)
    ct = ctx.encrypt(x)
    # Amounts reduce mod num_slots; a repeat is summed twice.
    out = ctx.decrypt(ev.rotate_add(ct, [1, 5 + n, 5])).real
    assert np.max(np.abs(out - (x + np.roll(x, -1) + 2 * np.roll(x, -5)))) \
        < 1e-4
    assert (out.size, ev.rotate_add(ct, [2]).level) == (n, ct.level)


@pytest.mark.parametrize("rotations", [[], [0], [1, 512]],
                         ids=["empty", "zero", "zero-mod-n"])
def test_rotate_add_refuses_a_zero_or_empty_group(ctx, rotations):
    with pytest.raises(ValueError, match="non-zero mod 512"):
        ctx.evaluator.rotate_add(ctx.encrypt([0.5]), rotations)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_rotate_add_is_bit_identical_across_backends(preset):
    params = PRESETS[preset]()
    x = np.random.default_rng(4).uniform(-1, 1, params.num_slots)
    outs = []
    for backend in ("reference", "stacked"):
        ctx = CkksContext(params, seed=9, backend=backend)
        ct = ctx.encrypt(x, level=params.max_level - 1)
        outs.append(ctx.evaluator.rotate_add(ct, [1, 2, 3]))
    assert engine.bit_identical(*outs)


def _tree_sum(ev, ct, width):
    """The log-tree this replaces: one ``he_rotate`` per halving."""
    shift = 1
    while shift < width:
        ct = ev.he_add(ct, ev.he_rotate(ct, shift))
        shift *= 2
    return ct


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_one_moddown_costs_at_most_twice_the_log_tree_error(preset):
    """The scoring program, ``square(rotate_sum(x * w))`` at width 16,
    against the same program over the log-tree, on the same ciphertext.
    Measured: toy 9.3e-6 (tree 1.3e-5), pw54 1.11e-10 (tree 9.3e-11)."""
    params = PRESETS[preset]()
    ctx = CkksContext(params, seed=123)
    ev, n = ctx.evaluator, params.num_slots
    x = np.random.default_rng(7).uniform(-1, 1, n)
    w = 0.5 + np.arange(n) % 16 / 32
    exact = _window_sums(x * w, 16) ** 2
    prod = ev.poly_mult(ctx.encrypt(x), ctx.encoder.encode(w))

    def error(reduce):
        out = ev.he_square(reduce(ev, prod, 16))
        return np.max(np.abs(ctx.decrypt(out).real - exact))

    assert error(rotate_sum) <= 2 * error(_tree_sum)
