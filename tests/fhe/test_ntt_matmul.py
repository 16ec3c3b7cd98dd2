"""The int64 tier's four-step matmul NTT against the per-limb butterflies.

``BatchedNttContext`` transforms a stack whose moduli are all below 2**31
as two float64 matrix products around a twiddle scale; the oracle is the
1-D ``NttContext``, ten butterfly stages in exact integer arithmetic.
Every comparison is ``array_equal``: the layout (bit-reversed
evaluations) and every residue must match for any ring degree — odd
log2 N gives a non-square ``n1 x n2`` grid — any row count, unreduced or
oddly strided input, and row-range views; and every context built here
must satisfy the 2**53 bound its exactness rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import modmath
from repro.fhe.ntt import (BatchedNttContext, _split_plan,
                           batched_ntt_context, ntt_context)
from repro.fhe.primes import generate_ntt_primes, is_prime
from test_transform_pins import seeded_inputs

RING_DEGREES = [1 << log for log in range(1, 13)]
ROW_COUNTS = [1, 2, 6, 13]


def basis(n: int, rows: int) -> tuple[int, ...]:
    """31- and 30-bit NTT primes, largest first (the presets' mix)."""
    big = generate_ntt_primes((rows + 1) // 2, 31, n)
    return tuple(big + generate_ntt_primes(rows // 2, 30, n,
                                           descending=False))


def inputs(moduli: tuple[int, ...], n: int) -> dict[str, np.ndarray]:
    """The pinned kinds (reduced, all ``q - 1``, signed centered, a
    stride-0 broadcast row) plus two more memory layouts."""
    kinds = seeded_inputs(moduli, n)
    wide = np.repeat(kinds["reduced"], 2, axis=1)
    return {**kinds,
            "fortran": np.asfortranarray(kinds["reduced"]),
            "sliced": wide[:, ::2]}


def oracle(moduli, n: int, stack: np.ndarray, direction: str) -> np.ndarray:
    return np.stack([getattr(ntt_context(q, n), direction)(row)
                     for q, row in zip(moduli, stack)])


def assert_bound(ctx: BatchedNttContext) -> None:
    """The exactness argument, recomputed from what the context bound."""
    assert ctx.klass == "int64"
    n1, n2 = ctx.grid
    q_max = max((ctx.owner or ctx).moduli)
    assert n1 * n2 == ctx.n and n2 in (n1, 2 * n1)
    assert ctx.pieces * ctx.bits >= (q_max - 1).bit_length()
    assert ctx.pieces * max(n1, n2) * ((1 << ctx.bits) - 1) * (q_max - 1) \
        < 1 << 53
    for table in (ctx.fwd_left, ctx.fwd_right, ctx.inv_left, ctx.inv_right):
        assert table.dtype == np.float64
        assert table.min() >= 0 and (table < ctx.q_grid).all()
    assert ctx.fwd_left.shape[1:] == (n1, ctx.pieces * n1)
    assert ctx.fwd_right.shape[1:] == (ctx.pieces * n2, n2)


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("n", RING_DEGREES)
def test_matmul_transform_is_the_butterfly_transform(n, rows):
    moduli = basis(n, rows)
    ctx = BatchedNttContext(moduli, n)
    assert_bound(ctx)
    for kind, stack in inputs(moduli, n).items():
        fwd, inv = ctx.forward(stack), ctx.inverse(stack)
        assert fwd.dtype == inv.dtype == np.int64, kind
        assert fwd.flags.c_contiguous and fwd.shape == stack.shape, kind
        assert np.array_equal(fwd, oracle(moduli, n, stack, "forward")), kind
        assert np.array_equal(inv, oracle(moduli, n, stack, "inverse")), kind
        assert np.array_equal(ctx.inverse(fwd), stack % ctx.q_col), kind


@pytest.mark.parametrize("n", [8, 1 << 10, 1 << 11])
def test_row_range_views_transform_their_own_limbs(n):
    moduli = basis(n, 13)
    ctx = BatchedNttContext(moduli, n)
    stack = inputs(moduli, n)["centered"]
    for start, stop in [(0, 13), (0, 1), (12, 13), (3, 9), (6, 7)]:
        view = ctx.rows(start, stop)
        assert_bound(view)
        assert view.owner is ctx and view.nbytes == 0
        assert view.moduli == moduli[start:stop]
        assert np.shares_memory(view.fwd_left, ctx.fwd_left)
        part = stack[start:stop]
        assert np.array_equal(
            view.forward(part), oracle(view.moduli, n, part, "forward"))
        assert np.array_equal(
            view.inverse(part), oracle(view.moduli, n, part, "inverse"))
    nested = ctx.rows(2, 10).rows(1, 3)
    assert nested.owner is ctx and nested.moduli == moduli[3:5]


def test_split_is_derived_from_the_bound_not_configured():
    assert _split_plan((1 << 31) - 1, 32) == (2, 16)     # N = 2**10
    assert _split_plan((1 << 31) - 1, 64) == (3, 11)     # N = 2**12
    assert _split_plan((1 << 20) - 3, 2) == (1, 20)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        _split_plan((1 << 31) - 1, 1 << 20)
    toy = batched_ntt_context(basis(1 << 10, 10), 1 << 10)
    test = batched_ntt_context(basis(1 << 12, 13), 1 << 12)
    assert (toy.pieces, toy.bits, toy.grid) == (2, 16, (32, 32))
    assert (test.pieces, test.bits, test.grid) == (3, 11, (64, 64))


def _ntt_prime(bits: int, n: int, start: int) -> int:
    """A ``bits``-bit prime === 1 mod 2n at or above the start-th one."""
    step = 2 * n
    lo, hi = 1 << (bits - 1), 1 << bits
    q = lo + (start * step) % (hi - lo)
    q = q // step * step + 1
    while not (lo <= q < hi and is_prime(q)):
        q = q + step if q + step < hi else lo // step * step + 1
    return q


@st.composite
def random_prime_stacks(draw):
    n = 1 << draw(st.integers(1, 8))
    moduli = []
    for _ in range(draw(st.integers(1, 4))):
        bits = draw(st.integers(max(20, n.bit_length() + 2), 31))
        q = _ntt_prime(bits, n, draw(st.integers(0, 1 << 30)))
        if q not in moduli:
            moduli.append(q)
    seed = draw(st.integers(0, 1 << 32))
    return tuple(moduli), n, seed


@given(random_prime_stacks())
@settings(max_examples=60, deadline=None)
def test_random_20_to_31_bit_primes(case):
    moduli, n, seed = case
    ctx = BatchedNttContext(moduli, n)
    assert_bound(ctx)
    rng = np.random.default_rng(seed)
    stack = rng.integers(-(1 << 62), 1 << 62, size=(len(moduli), n),
                         dtype=np.int64)
    fwd = ctx.forward(stack)
    assert np.array_equal(fwd, oracle(moduli, n, stack, "forward"))
    assert np.array_equal(ctx.inverse(fwd), stack % ctx.q_col)


def test_a_wider_modulus_keeps_the_stack_on_the_shoup_butterflies(
        monkeypatch):
    n = 64
    moduli = (generate_ntt_primes(1, 30, n)[0],
              generate_ntt_primes(1, 32, n)[0])
    ctx = BatchedNttContext(moduli, n)
    assert ctx.klass == "dword" and ctx.pieces is None
    assert ctx.fwd_left is None and ctx.psi_rev_shoup is not None

    def no_matmul(*args, **kwargs):
        raise AssertionError("matmul path on the double-word tier")

    monkeypatch.setattr(BatchedNttContext, "_matmul_mod", no_matmul)
    stack = inputs(moduli, n)["centered"]
    fwd = ctx.forward(stack)
    assert np.array_equal(fwd, oracle(moduli, n, stack, "forward"))
    assert np.array_equal(ctx.inverse(fwd), stack % ctx.q_col)


def test_forced_object_dtype_around_a_warm_int64_context():
    n = 1 << 6
    moduli = basis(n, 3)
    ctx = batched_ntt_context(moduli, n)
    stack = inputs(moduli, n)["reduced"]
    want_fwd, want_inv = ctx.forward(stack), ctx.inverse(stack)
    with modmath.force_object_dtype():
        got_fwd, got_inv = ctx.forward(stack), ctx.inverse(stack)
        assert batched_ntt_context(moduli, n) is not ctx
    assert got_fwd.dtype == got_inv.dtype == object
    assert np.array_equal(got_fwd, want_fwd)
    assert np.array_equal(got_inv, want_inv)
    # Object-dtype input takes the same fallback outside the block.
    assert np.array_equal(ctx.forward(stack.astype(object)), want_fwd)
    assert batched_ntt_context(moduli, n) is ctx
