"""Property tests for the double-word (32..60-bit) native modmath paths.

The tentpole claim of the native-kernel PR: for every modulus below
2**61, the vectorized double-word mulmod (Barrett-128) and the Shoup
precomputed-quotient multiply produce exactly the residues of the scalar
Python-int oracles — classic Barrett, single-subtraction Barrett, and
Montgomery — across random primes of every width from 32 to 61 bits.
Also covers the object-dtype fallback at 61+ bits and the
``force_object_dtype`` switch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import modmath
from repro.fhe.modmath import (MontgomeryContext, NATIVE_SAFE_MODULUS,
                               barrett_precompute, barrett_precompute_single,
                               barrett_reduce, barrett_reduce_single,
                               limb_dtype, mulmod_stack, mulmod_vec,
                               native_class, shoup_mulmod_vec,
                               shoup_precompute, stack_native_class,
                               stack_residues)
from repro.fhe.primes import is_prime

N = 16


def _prime_near(start: int, bits: int) -> int:
    """Deterministic prime of exactly ``bits`` bits at/above ``start``."""
    lo, hi = 1 << (bits - 1), (1 << bits) - 1
    p = max(start | 1, lo | 1)
    while not is_prime(p):
        p += 2
        if p > hi:  # extremely unlikely wrap; restart low
            p = lo | 1
    return p


def _prime_pool() -> list[int]:
    """One random prime per width 32..61 bits (seeded, so stable)."""
    rng = np.random.default_rng(0xD0D)
    pool = []
    for bits in range(32, 62):
        start = (1 << (bits - 1)) + int(rng.integers(0, 1 << (bits - 2)))
        pool.append(_prime_near(start, bits))
    return pool


DWORD_PRIMES = _prime_pool()


@st.composite
def prime_and_operands(draw):
    q = draw(st.sampled_from(DWORD_PRIMES))
    a = draw(st.lists(st.integers(0, q - 1), min_size=N, max_size=N))
    b = draw(st.lists(st.integers(0, q - 1), min_size=N, max_size=N))
    return q, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)


class TestDwordAgainstScalarOracles:
    @given(prime_and_operands())
    @settings(max_examples=60, deadline=None)
    def test_mulmod_vec_matches_barrett_oracles(self, qab):
        q, a, b = qab
        assert native_class(q) == "dword"
        out = mulmod_vec(a, b, q)
        assert out.dtype == np.int64
        mu, k = barrett_precompute(q)
        mu1, k1 = barrett_precompute_single(q)
        for x, y, got in zip(a, b, out):
            x, y = int(x), int(y)
            expect = (x * y) % q
            assert int(got) == expect
            assert barrett_reduce(x * y, q, mu, k) == expect
            assert barrett_reduce_single(x * y, q, mu1, k1) == expect

    @given(prime_and_operands())
    @settings(max_examples=60, deadline=None)
    def test_mulmod_vec_matches_montgomery(self, qab):
        q, a, b = qab
        mont = MontgomeryContext(q)
        out = mulmod_vec(a, b, q)
        for x, y, got in zip(a, b, out):
            x, y = int(x), int(y)
            assert int(got) == mont.from_mont(
                mont.mulmod(mont.to_mont(x), mont.to_mont(y)))

    @given(prime_and_operands())
    @settings(max_examples=60, deadline=None)
    def test_shoup_multiply_matches_oracles(self, qab):
        q, a, b = qab
        w = int(b[0])
        out = shoup_mulmod_vec(a, w, shoup_precompute(w, q), q)
        scalar_path = mulmod_vec(a, w, q)
        mu, k = barrett_precompute_single(q)
        for x, got, via_mulmod in zip(a, out, scalar_path):
            expect = (int(x) * w) % q
            assert int(got) == expect
            assert int(via_mulmod) == expect
            assert barrett_reduce_single(int(x) * w, q, mu, k) == expect

    @given(prime_and_operands())
    @settings(max_examples=40, deadline=None)
    def test_stacked_mulmod_matches_scalar(self, qab):
        q, a, b = qab
        # A mixed-width stack (30-bit + the drawn prime) must classify as
        # dword and stay exact on every row.
        q_small = 1032193
        moduli = (q_small, q)
        stack_a = stack_residues([a % q_small, a], moduli)
        stack_b = stack_residues([b % q_small, b], moduli)
        assert stack_native_class(moduli) == "dword"
        assert stack_a.dtype == np.int64
        out = mulmod_stack(stack_a, stack_b, moduli)
        for i, qi in enumerate(moduli):
            for j in range(N):
                assert int(out[i, j]) == \
                    (int(stack_a[i, j]) * int(stack_b[i, j])) % qi

    @given(prime_and_operands())
    @settings(max_examples=40, deadline=None)
    def test_object_oracle_agrees_under_force(self, qab):
        """The forced bignum path is the oracle the native path must equal."""
        q, a, b = qab
        native = mulmod_vec(a, b, q)
        with modmath.force_object_dtype():
            assert native_class(q) == "object"
            oracle = mulmod_vec(a, b, q)
        assert oracle.dtype == object
        assert np.array_equal(np.asarray(native, dtype=object), oracle)


class TestDispatchBoundaries:
    def test_native_class_tiers(self):
        assert native_class((1 << 31) - 1) == "int64"
        assert native_class(1 << 31) == "dword"
        assert native_class(NATIVE_SAFE_MODULUS - 1) == "dword"
        assert native_class(NATIVE_SAFE_MODULUS) == "object"

    def test_61_bit_modulus_takes_object_path(self):
        """Just past the native bound: object fallback, still exact."""
        q = _prime_near((1 << 61) + (1 << 13), 62)
        assert limb_dtype(q) is object
        rng = np.random.default_rng(4)
        a = modmath.random_residues(N, q, rng)
        b = modmath.random_residues(N, q, rng)
        assert a.dtype == object
        out = mulmod_vec(a, b, q)
        assert [int(v) for v in out] == [(int(x) * int(y)) % q
                                         for x, y in zip(a, b)]

    def test_force_object_is_scoped(self):
        q = DWORD_PRIMES[0]
        assert native_class(q) == "dword"
        with modmath.force_object_dtype():
            assert native_class(q) == "object"
            assert limb_dtype(q) is object
        assert native_class(q) == "dword"

    def test_largest_residues_at_native_bound(self):
        """q-1 squared at the biggest 61-bit prime: the worst case for the
        128-bit Barrett estimate."""
        q = max(DWORD_PRIMES)
        assert q < NATIVE_SAFE_MODULUS
        a = np.array([q - 1, q - 2, 1, 0], dtype=np.int64)
        out = mulmod_vec(a, a, q)
        assert [int(v) for v in out] == [(int(x) * int(x)) % q for x in a]


def test_scalar_constant_cache_is_bounded():
    """A scalar multiplicand keeps its Shoup quotient cached per
    ``(scalar, modulus)``; the ``reference`` backend's ``scalar_mul``
    hands this request-supplied scalars, so distinct ones must not pile
    up for the life of the process."""
    q = DWORD_PRIMES[54 - 32]
    assert q.bit_length() == 54
    cache = modmath._shoup_scalar
    bound = cache.cache_info().maxsize
    assert bound is not None and bound < 10 ** 4
    a = np.array([q - 1, q // 2, 12345, 1, 0], dtype=np.int64)
    for s in range(1, 10 ** 4 + 1):
        s *= 0x9E3779B97F4A7C15        # spread over (and past) the word
        assert [int(v) for v in mulmod_vec(a, s, q)] \
            == [(int(x) * s) % q for x in a]
    assert cache.cache_info().currsize <= bound


def _object_draw(n: int, q: int, rng: np.random.Generator) -> list[int]:
    """The wide-modulus draw as first written: hi / lo words composed
    and reduced in Python integers."""
    lo = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(object)
    hi = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(object)
    return [int(v) for v in ((hi << 32) | lo) % q]


@given(bits=st.integers(32, 61), offset=st.integers(0, 1 << 40),
       seed=st.integers(0, 2**32 - 1), forced=st.booleans())
@settings(max_examples=40, deadline=None)
def test_uniform_draws_in_machine_words_match_the_object_formula(
        bits, offset, seed, forced):
    """Below 2**61 ``random_residues`` composes hi:lo in uint64: the same
    two RNG calls and the same values as the Python-integer formula,
    plain and under ``force_object_dtype`` (where only the dtype
    differs)."""
    q = _prime_near((1 << (bits - 1)) + offset, bits)
    assert 1 << 31 <= q < NATIVE_SAFE_MODULUS
    want_rng = np.random.default_rng(seed)
    want = _object_draw(257, q, want_rng)
    rng = np.random.default_rng(seed)
    if forced:
        with modmath.force_object_dtype():
            got = modmath.random_residues(257, q, rng)
    else:
        got = modmath.random_residues(257, q, rng)
    assert got.dtype == (object if forced else np.int64)
    assert [int(v) for v in got] == want
    # Same calls: the streams stay in step.
    assert rng.integers(0, 1 << 62) == want_rng.integers(0, 1 << 62)
