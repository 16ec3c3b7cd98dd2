"""The multi-step matmul NTT against the per-limb butterflies.

``BatchedNttContext`` transforms a stack on either native tier as one
exact float64 matrix product per factor of N with pointwise twiddles in
between — residues cut into words, and beyond 2**31 the tables too
(``repro.fhe.modmath.BoundModMatmul``); the oracle is the 1-D
``NttContext``, log2 N butterfly stages in exact integer arithmetic.
Every comparison is ``array_equal``: the layout (bit-reversed
evaluations) and every residue must match for any ring degree — one, two
or three factors, equal or not — any row count, unreduced or oddly
strided input, and row-range views; and every context built here must
satisfy the 2**53 bound its exactness rests on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import CkksParameters
from repro.fhe.modmath import NATIVE_SAFE_MODULUS, matmul_split_plan
from repro.fhe.ntt import (MAX_FACTOR, BatchedNttContext, NttContext,
                           batched_ntt_context, factors, ntt_context)
from repro.fhe.primes import generate_ntt_primes, is_prime
from test_transform_pins import seeded_inputs

RING_DEGREES = [1 << log for log in range(1, 13)]
ROW_COUNTS = [1, 2, 6, 13]
DWORD_RING_DEGREES = [1 << log for log in range(1, 14)]
DWORD_ROW_COUNTS = [1, 3, 9]


def basis(n: int, rows: int) -> tuple[int, ...]:
    """31- and 30-bit NTT primes, largest first (the presets' mix)."""
    big = generate_ntt_primes((rows + 1) // 2, 31, n)
    return tuple(big + generate_ntt_primes(rows // 2, 30, n,
                                           descending=False))


def dword_basis(n: int, rows: int) -> tuple[int, ...]:
    """55- and 54-bit NTT primes, largest first (``pw54``'s mix)."""
    big = generate_ntt_primes((rows + 1) // 2, 55, n)
    return tuple(big + generate_ntt_primes(rows // 2, 54, n,
                                           descending=False))


BASES = {"int64": basis, "dword": dword_basis}


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


def assert_bound(ctx: BatchedNttContext, klass: str) -> None:
    """The exactness argument, recomputed from what the context bound."""
    assert ctx.klass == klass
    grid, kernel = ctx.grid, ctx.matmul
    pieces, bits = kernel.pieces, kernel.bits
    table_pieces, table_bits = kernel.table_pieces, kernel.table_bits
    assert grid == factors(ctx.n) == tuple(sorted(grid))
    assert math.prod(grid) == ctx.n
    assert max(grid) <= min(MAX_FACTOR, 2 * min(grid))
    q_max = max((ctx.owner or ctx).moduli)
    word = (q_max - 1).bit_length()
    assert pieces * bits >= word and table_pieces * table_bits >= word
    assert table_pieces == 1 or klass == "dword"
    assert (ctx.q_inv_col is None) == (table_pieces == 1)
    table_max = q_max - 1 if table_pieces == 1 else (1 << table_bits) - 1
    assert pieces * max(grid) * ((1 << bits) - 1) * table_max < 1 << 53
    for tables in (ctx.fwd_matrices, ctx.inv_matrices):
        assert len(tables) == len(grid)
        for j, (table, n_j) in enumerate(zip(tables, grid)):
            # One array per table word.  The last of several axes is
            # contracted from the right; a table between the first and
            # the last axis broadcasts over the axes before its own.
            shape = (pieces * n_j, n_j) if 0 < j == len(grid) - 1 \
                else (n_j, pieces * n_j)
            if 0 < j < len(grid) - 1:
                shape = (1,) + shape
            assert len(table) == table_pieces
            for word in table:
                assert word.dtype == np.float64 and word.shape[1:] == shape
                assert word.min() >= 0 and word.max() <= table_max
            # The table words of an entry are the words of a residue.
            entry = sum(word.astype(np.int64) << (t * table_bits)
                        for t, word in enumerate(table))
            assert (entry < ctx.q_col.reshape((-1,) + (1,) * len(shape))
                    ).all()
    # Gathers by index arrays come back transposed; a strided table costs
    # every transform that reads it.
    assert all(table.flags.c_contiguous for table in ctx._tables())
    for twiddles in (ctx.fwd_twiddles, ctx.inv_twiddles):
        assert [t.shape[1:] for t in twiddles] == [
            (1, ctx.n // math.prod(grid[:j])) for j in range(len(grid) - 1)]


def assert_transforms(ctx, moduli, n, klass):
    assert_bound(ctx, klass)
    for kind, stack in inputs(moduli, n).items():
        fwd, inv = ctx.forward(stack), ctx.inverse(stack)
        assert fwd.dtype == inv.dtype == np.int64, kind
        assert fwd.flags.c_contiguous and fwd.shape == stack.shape, kind
        assert np.array_equal(fwd, oracle(moduli, n, stack, "forward")), kind
        assert np.array_equal(inv, oracle(moduli, n, stack, "inverse")), kind
        assert np.array_equal(ctx.inverse(fwd), stack % ctx.q_col), kind


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("n", RING_DEGREES)
def test_matmul_transform_is_the_butterfly_transform(n, rows):
    moduli = basis(n, rows)
    assert_transforms(BatchedNttContext(moduli, n), moduli, n, "int64")


@pytest.mark.parametrize("rows", DWORD_ROW_COUNTS)
@pytest.mark.parametrize("n", DWORD_RING_DEGREES)
def test_dword_matmul_transform_is_the_butterfly_transform(n, rows):
    moduli = dword_basis(n, rows)
    assert_transforms(BatchedNttContext(moduli, n), moduli, n, "dword")


def assert_row_views(n: int, klass: str) -> None:
    moduli = BASES[klass](n, 13)
    ctx = BatchedNttContext(moduli, n)
    stack = inputs(moduli, n)["centered"]
    for start, stop in [(0, 13), (0, 1), (12, 13), (3, 9), (6, 7)]:
        view = ctx.rows(start, stop)
        assert_bound(view, klass)
        assert view.owner is ctx and view.nbytes == 0
        assert view.moduli == moduli[start:stop]
        for mine, owned in zip(view._tables(), ctx._tables()):
            assert np.shares_memory(mine, owned) and len(mine) == stop - start
        part = stack[start:stop]
        assert np.array_equal(
            view.forward(part), oracle(view.moduli, n, part, "forward"))
        assert np.array_equal(
            view.inverse(part), oracle(view.moduli, n, part, "inverse"))
    nested = ctx.rows(2, 10).rows(1, 3)
    assert nested.owner is ctx and nested.moduli == moduli[3:5]
    part = stack[3:5]
    assert np.array_equal(nested.forward(part),
                          oracle(nested.moduli, n, part, "forward"))


@pytest.mark.parametrize("n", [8, 1 << 10, 1 << 11])
def test_row_range_views_transform_their_own_limbs(n):
    assert_row_views(n, "int64")


@pytest.mark.parametrize("n", [8, 1 << 10, 1 << 13])
def test_dword_row_range_views_transform_their_own_limbs(n):
    assert_row_views(n, "dword")


def test_grid_is_the_fewest_balanced_factors_up_to_the_cap():
    assert MAX_FACTOR == 64
    assert {log: factors(1 << log) for log in (1, 3, 6, 7, 10, 11, 12, 13,
                                                16, 17, 18, 19)} == {
        1: (2,), 3: (8,), 6: (64,), 7: (8, 16), 10: (32, 32), 11: (32, 64),
        12: (64, 64), 13: (16, 16, 32), 16: (32, 32, 64), 17: (32, 64, 64),
        18: (64, 64, 64), 19: (16, 32, 32, 32)}


def test_split_is_derived_from_the_bound_not_configured():
    def plan(bits, width):
        q_max = (1 << bits) - 1
        return matmul_split_plan(q_max, width, q_max)

    assert plan(31, 32) == (2, 16, 1, 31)       # N = 2**10
    assert plan(31, 64) == (3, 11, 1, 31)       # N = 2**12
    assert matmul_split_plan((1 << 20) - 3, 2, (1 << 20) - 3) \
        == (1, 20, 1, 20)
    # The paper's word: 6 partial products per step at either width; the
    # 55-bit special primes beside it move a word from operand to table.
    assert plan(54, 32) == plan(54, 64) == (3, 18, 2, 27)
    assert plan(55, 32) == (2, 28, 3, 19)
    assert plan(55, 64) == (4, 14, 2, 28)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        plan(60, 1 << 40)
    # The int64 presets keep the grids and splits they had when theirs
    # was the only tier on matrix products.
    for preset, want in [("toy", ((32, 32), 2, 16)),
                         ("test", ((64, 64), 3, 11)),
                         ("boot_test", ((32, 32), 2, 16))]:
        params = getattr(CkksParameters, preset)()
        ctx = batched_ntt_context(
            tuple(params.moduli) + tuple(params.special_moduli),
            params.ring_degree)
        kernel = ctx.matmul
        assert (ctx.grid, kernel.pieces, kernel.bits) == want
        assert kernel.table_pieces == 1 and ctx.klass == "int64"


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
def random_prime_stacks(draw, min_bits, max_bits):
    n = 1 << draw(st.integers(1, 8))
    moduli = []
    for _ in range(draw(st.integers(1, 4))):
        bits = draw(st.integers(max(min_bits, n.bit_length() + 2),
                                max_bits))
        q = _ntt_prime(bits, n, draw(st.integers(0, 1 << 30)))
        if q not in moduli:
            moduli.append(q)
    seed = draw(st.integers(0, 1 << 32))
    return tuple(moduli), n, seed


@given(random_prime_stacks(20, 31))
@settings(max_examples=60, deadline=None)
def test_random_20_to_31_bit_primes(case):
    assert_random_stack(case, "int64")


@given(random_prime_stacks(32, 60))
@settings(max_examples=60, deadline=None)
def test_random_32_to_60_bit_primes(case):
    """The double-word tier below 2**56; a stack with a wider row is
    refused."""
    moduli, n, _ = case
    if max(moduli) < NATIVE_SAFE_MODULUS:
        assert_random_stack(case, "dword")
        return
    with pytest.raises(ValueError, match=f"modulus {max(moduli)} is 2"):
        BatchedNttContext(moduli, n)


def assert_random_stack(case, klass: str) -> None:
    moduli, n, seed = case
    ctx = BatchedNttContext(moduli, n)
    assert_bound(ctx, klass)
    rng = np.random.default_rng(seed)
    stack = rng.integers(-(1 << 62), 1 << 62, size=(len(moduli), n),
                         dtype=np.int64)
    fwd = ctx.forward(stack)
    assert np.array_equal(fwd, oracle(moduli, n, stack, "forward"))
    assert np.array_equal(ctx.inverse(fwd), stack % ctx.q_col)


@pytest.mark.parametrize("wide_bits,table_pieces",
                         [(32, 1), (40, 2), (55, 2)])
def test_a_wider_modulus_moves_the_stack_to_split_table_words(
        wide_bits, table_pieces, monkeypatch):
    """One row past 2**31 takes the whole stack off the int64 tier — onto
    the same matrix products, not onto butterflies: its twiddle scales
    become ``_mulmod_f64`` products and, once a 64-term dot product of
    whole table entries no longer fits below 2**53, its tables split."""
    n = 64
    moduli = (generate_ntt_primes(1, 30, n)[0],
              generate_ntt_primes(1, wide_bits, n)[0])
    ctx = BatchedNttContext(moduli, n)
    assert_bound(ctx, "dword")
    assert ctx.matmul.table_pieces == table_pieces
    stack = inputs(moduli, n)["centered"]
    want = oracle(moduli, n, stack, "forward")

    def no_butterflies(*args, **kwargs):
        raise AssertionError("butterfly stages on a native tier")

    monkeypatch.setattr(NttContext, "forward", no_butterflies)
    monkeypatch.setattr(NttContext, "inverse", no_butterflies)
    fwd = ctx.forward(stack)
    assert np.array_equal(fwd, want)
    assert np.array_equal(ctx.inverse(fwd), stack % ctx.q_col)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [8, 1 << 10])
@pytest.mark.parametrize("klass", sorted(BASES))
def test_input_is_reduced_only_past_the_kernels_reach(klass, n, sign,
                                                      monkeypatch):
    """The first step only cuts its input into words, so a transform
    reduces its input only where a word could leave the range the split
    was derived for: one entry at ``±(reach - 1)`` goes straight in, one
    at ``±reach`` is reduced first — the same evaluations either way."""
    moduli = BASES[klass](n, 3)
    ctx = BatchedNttContext(moduli, n)
    reach = ctx.matmul.reach
    assert max(moduli) < reach < 1 << 62
    remainders = []
    remainder = np.remainder

    def counting(*args, **kwargs):
        remainders.append(args[0].shape)
        return remainder(*args, **kwargs)

    monkeypatch.setattr(np, "remainder", counting)
    for edge, reduced in ((reach - 1, 0), (reach, 1)):
        stack = inputs(moduli, n)["centered"].copy()
        stack[1, n // 2] = sign * edge
        for direction in ("forward", "inverse"):
            remainders.clear()
            got = getattr(ctx, direction)(stack)
            assert len(remainders) == reduced, (edge, direction)
            assert np.array_equal(got, oracle(moduli, n, stack, direction))
