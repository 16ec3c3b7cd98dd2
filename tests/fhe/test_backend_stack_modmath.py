"""Property tests for the 2-D (limb-stacked) modmath paths.

The stacked kernels must agree elementwise with the scalar oracles
(``mulmod``, Barrett in both variants, Montgomery) in both kernel
regimes: the int64 fast path (30-bit test primes) and the double-word
native path (the paper's 54-bit word, including mixed-width stacks).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fhe.modmath import (MontgomeryContext, addmod, addmod_stack,
                               barrett_precompute, barrett_precompute_single,
                               barrett_reduce, barrett_reduce_single,
                               mulmod, mulmod_stack,
                               negmod_stack, reduce_stack, scalar_add_stack,
                               scalar_mul_stack, stack_native_class,
                               stack_residues, submod, submod_stack,
                               unstack_residues)
from repro.fhe.primes import generate_ntt_primes

N = 8
SMALL_PRIMES = generate_ntt_primes(4, 30, 1 << 10)     # int64 regime
BIG_PRIMES = generate_ntt_primes(3, 54, 1 << 10)       # dword regime
MIXED_PRIMES = [SMALL_PRIMES[0], BIG_PRIMES[0]]        # widest rules: dword

PRIME_SETS = pytest.mark.parametrize(
    "moduli", [SMALL_PRIMES, BIG_PRIMES, MIXED_PRIMES],
    ids=["int64-30bit", "dword-54bit", "mixed"])


def stack_for(moduli, seed):
    rng = np.random.default_rng(seed)
    limbs = []
    for q in moduli:
        vals = [int(rng.integers(0, 1 << 62)) % q for _ in range(N)]
        limbs.append(np.array(vals, dtype=np.int64))
    return stack_residues(limbs, moduli)


class TestStackLayout:
    def test_dtype_autoselection(self):
        assert stack_for(SMALL_PRIMES, 0).dtype == np.int64
        assert stack_for(BIG_PRIMES, 0).dtype == np.int64
        assert stack_for(MIXED_PRIMES, 0).dtype == np.int64

    def test_native_class_predicates(self):
        assert stack_native_class(SMALL_PRIMES) == "int64"
        assert stack_native_class(BIG_PRIMES) == "dword"
        assert stack_native_class(MIXED_PRIMES) == "dword"

    @PRIME_SETS
    def test_unstack_round_trips(self, moduli):
        s = stack_for(moduli, 1)
        limbs = unstack_residues(s)
        assert len(limbs) == len(moduli)
        rebuilt = stack_residues(limbs, moduli)
        assert np.array_equal(np.asarray(s, dtype=object),
                              np.asarray(rebuilt, dtype=object))

    def test_limb_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stack_residues([np.zeros(N, dtype=np.int64)], SMALL_PRIMES)


@PRIME_SETS
@settings(max_examples=25, deadline=None)
@given(seed_a=st.integers(0, 2**32 - 1), seed_b=st.integers(0, 2**32 - 1))
def test_addsub_match_scalar_oracles(moduli, seed_a, seed_b):
    a, b = stack_for(moduli, seed_a), stack_for(moduli, seed_b)
    add = addmod_stack(a, b, moduli)
    sub = submod_stack(a, b, moduli)
    for i, q in enumerate(moduli):
        for j in range(N):
            assert int(add[i, j]) == addmod(int(a[i, j]), int(b[i, j]), q)
            assert int(sub[i, j]) == submod(int(a[i, j]), int(b[i, j]), q)


@PRIME_SETS
@settings(max_examples=25, deadline=None)
@given(seed_a=st.integers(0, 2**32 - 1), seed_b=st.integers(0, 2**32 - 1))
def test_mulmod_matches_barrett_and_montgomery(moduli, seed_a, seed_b):
    """One product, four independent oracles, elementwise equality."""
    a, b = stack_for(moduli, seed_a), stack_for(moduli, seed_b)
    prod = mulmod_stack(a, b, moduli)
    for i, q in enumerate(moduli):
        mu, k = barrett_precompute(q)
        mu1, k1 = barrett_precompute_single(q)
        mont = MontgomeryContext(q)
        for j in range(N):
            x, y = int(a[i, j]), int(b[i, j])
            expect = mulmod(x, y, q)
            assert int(prod[i, j]) == expect
            assert barrett_reduce(x * y, q, mu, k) == expect
            assert barrett_reduce_single(x * y, q, mu1, k1) == expect
            assert mont.from_mont(
                mont.mulmod(mont.to_mont(x), mont.to_mont(y))) == expect


@PRIME_SETS
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       scalar=st.integers(-2**60, 2**60))
def test_scalar_ops_match_scalar_oracles(moduli, seed, scalar):
    a = stack_for(moduli, seed)
    scalars = [scalar] * len(moduli)
    mul = scalar_mul_stack(a, scalars, moduli)
    add = scalar_add_stack(a, scalars, moduli)
    for i, q in enumerate(moduli):
        for j in range(N):
            assert int(mul[i, j]) == mulmod(int(a[i, j]), scalar % q, q)
            assert int(add[i, j]) == addmod(int(a[i, j]), scalar % q, q)


@PRIME_SETS
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_neg_and_reduce(moduli, seed):
    a = stack_for(moduli, seed)
    neg = negmod_stack(a, moduli)
    for i, q in enumerate(moduli):
        for j in range(N):
            assert int(neg[i, j]) == (q - int(a[i, j])) % q
    # reduce of signed values agrees with Python %
    rng = np.random.default_rng(seed)
    signed = np.array([[int(rng.integers(-10**9, 10**9)) for _ in range(N)]
                       for _ in moduli], dtype=object)
    red = reduce_stack(signed, moduli)
    for i, q in enumerate(moduli):
        for j in range(N):
            assert int(red[i, j]) == int(signed[i, j]) % q


@PRIME_SETS
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zeros=st.integers(0, N - 1))
def test_negation_selects_instead_of_dividing(moduli, seed, zeros):
    """``q_i - a`` with ``q_i`` mapped to 0 by a select: the integers of
    the ``(q_i - a) % q_i`` it replaced, on both tiers, zeros and
    ``q_i - 1`` included."""
    a = stack_for(moduli, seed)
    a[:, :zeros] = 0
    for i, q in enumerate(moduli):
        a[i, -1] = q - 1
    want = [[(q - int(x)) % q for x in row] for q, row in zip(moduli, a)]
    got = negmod_stack(a, moduli)
    assert got.dtype == np.int64
    assert [[int(x) for x in row] for row in got] == want


def test_54_bit_word_products_are_exact():
    """Regression guard: 54-bit products overflow int64 and must take the
    double-word path; a wrap-around would show up as an oracle mismatch."""
    q = BIG_PRIMES[0]
    assert q.bit_length() == 54
    a = stack_residues([np.array([q - 1] * N, dtype=np.int64)], [q])
    assert a.dtype == np.int64
    out = mulmod_stack(a, a, [q])
    assert int(out[0, 0]) == pow(q - 1, 2, q)
