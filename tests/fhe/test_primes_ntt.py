"""Tests for prime generation and the negacyclic NTT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import CkksParameters, modmath
from repro.fhe.ntt import (NttContext, bit_reverse, bit_reverse_permutation,
                           negacyclic_convolution_naive)
from repro.fhe.primes import (_factorize, find_primitive_root,
                              generate_ntt_primes, is_prime,
                              primitive_nth_root)
from pins import PRESETS

#: Every preset's moduli, ciphertext and special.
PRESET_MODULI = {
    name: tuple(params.moduli) + tuple(params.special_moduli)
    for name, params in (
        ("toy", CkksParameters.toy()), ("test", CkksParameters.test()),
        ("boot_test", CkksParameters.boot_test()), ("pw54", PRESETS["pw54"]()),
        ("paper", CkksParameters.paper()))}

#: psi, the primitive 2N-th root of unity each ``pw54`` modulus's NTT
#: tables are built from, recorded when the root finder still factored
#: q - 1 by trial division.
PW54_PSI = (7862708603817584, 7823349333301925, 2762422508560009,
            3361898575365940, 8960610004468639, 8129458225417071,
            1798431904026580, 21601706080539864, 25569428027229755,
            29180063780949092)


def trial_division(n: int) -> set[int]:
    """The prime factors of ``n``, by dividing by 2, 3, 5, 7, 9, ... while
    the divisor's square is at most what is left."""
    factors, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.add(n)
    return factors


def prime_below(n: int) -> int:
    """The largest prime below ``n``, by the trial-division oracle."""
    n -= 1
    while trial_division(n) != {n}:
        n -= 1
    return n


def smallest_generator(q: int) -> int:
    """The smallest g whose powers g**0 .. g**(q - 2) mod q are all
    different from 1 but the first: a brute-force primitive root."""
    for g in range(2, q):
        powers = np.array([1], dtype=np.int64)
        while len(powers) < q - 1:
            powers = np.concatenate(
                [powers, powers * pow(g, len(powers), q) % q])
        if np.count_nonzero(powers[:q - 1] == 1) == 1:
            return g
    raise AssertionError(f"{q} has no primitive root")


class TestPrimes:
    def test_small_primes(self):
        known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
        for n in range(2, 43):
            assert is_prime(n) == (n in known)

    def test_large_known_prime(self):
        assert is_prime(2**61 - 1)          # Mersenne prime
        assert not is_prime(2**61 + 1)

    @pytest.mark.parametrize("bits,n", [(30, 1 << 10), (30, 1 << 12),
                                        (54, 1 << 16)])
    def test_generated_primes_are_ntt_friendly(self, bits, n):
        primes = generate_ntt_primes(4, bits, n)
        assert len(set(primes)) == 4
        for q in primes:
            assert is_prime(q)
            assert q.bit_length() == bits
            assert (q - 1) % (2 * n) == 0

    def test_ascending_generation(self):
        primes = generate_ntt_primes(3, 30, 1 << 10, descending=False)
        assert primes == sorted(primes)
        for q in primes:
            assert is_prime(q) and (q - 1) % (1 << 11) == 0

    def test_primitive_root_order(self):
        q = generate_ntt_primes(1, 30, 1 << 10)[0]
        root = primitive_nth_root(q, 2048)
        assert pow(root, 2048, q) == 1
        assert pow(root, 1024, q) == q - 1  # exact order 2048

    def test_primitive_root_rejects_bad_order(self):
        with pytest.raises(ValueError):
            primitive_nth_root(17, 7)

    def test_find_primitive_root_small(self):
        assert find_primitive_root(17) == 3


class TestRootFinder:
    """``_factorize`` and ``find_primitive_root`` against oracles that
    share none of their code."""

    @pytest.mark.parametrize("preset", sorted(PRESET_MODULI))
    def test_factors_of_every_preset_modulus_minus_one(self, preset):
        for q in PRESET_MODULI[preset]:
            assert _factorize(q - 1) == trial_division(q - 1), q

    def test_factors_of_the_largest_ntt_prime_below_2_to_the_56(self):
        q, = generate_ntt_primes(1, 56, 1 << 10)
        assert q.bit_length() == 56
        assert _factorize(q - 1) == trial_division(q - 1) \
            == {2, 7, 17, 19609, 15078127}

    def test_factors_of_hard_inputs(self):
        p = prime_below(1 << 26)
        r = prime_below(p)
        mersenne = (1 << 31) - 1
        assert trial_division(mersenne) == {mersenne}
        cases = {1: set(), 2: {2}, 4: {2}, mersenne: {mersenne},
                 p * p: {p}, (1 << 11) * mersenne: {2, mersenne},
                 p * r: {p, r}, 3 ** 5 * p * p * r: {3, p, r}}
        for n, factors in cases.items():
            assert _factorize(n) == factors, n
        with pytest.raises(ValueError, match="cannot factor 0"):
            _factorize(0)

    def test_smallest_root_of_every_small_ntt_prime(self):
        # Every prime below 2**16 a ring of degree 64 or more transforms
        # over: q = 1 (mod 128).
        primes = [q for q in range(129, 1 << 16, 128)
                  if trial_division(q) == {q}]
        assert len(primes) == 99
        for q in primes:
            assert find_primitive_root(q) == smallest_generator(q), q

    def test_pw54_roots_are_pinned(self):
        n = PRESETS["pw54"]().ring_degree
        moduli = PRESET_MODULI["pw54"]
        psi = tuple(primitive_nth_root(q, 2 * n) for q in moduli)
        assert psi == PW54_PSI
        assert all(pow(root, n, q) == q - 1 for root, q in zip(psi, moduli))


class TestBitReverse:
    @given(st.integers(min_value=0, max_value=255))
    def test_involution(self, v):
        assert bit_reverse(bit_reverse(v, 8), 8) == v

    def test_permutation_is_bijection(self):
        perm = bit_reverse_permutation(64)
        assert sorted(perm.tolist()) == list(range(64))


@pytest.fixture(scope="module", params=[(1 << 6, 30), (1 << 8, 30)])
def ntt_ctx(request):
    n, bits = request.param
    q = generate_ntt_primes(1, bits, n)[0]
    return NttContext(q, n)


class TestNtt:
    def test_roundtrip(self, ntt_ctx):
        rng = np.random.default_rng(1)
        a = modmath.random_residues(ntt_ctx.n, ntt_ctx.q, rng)
        back = ntt_ctx.inverse(ntt_ctx.forward(a))
        assert np.array_equal(back, a)

    def test_forward_of_constant_is_constant_vector(self, ntt_ctx):
        a = np.zeros(ntt_ctx.n, dtype=np.int64)
        a[0] = 5
        f = ntt_ctx.forward(a)
        assert all(int(v) == 5 for v in f)

    def test_linearity(self, ntt_ctx):
        rng = np.random.default_rng(2)
        a = modmath.random_residues(ntt_ctx.n, ntt_ctx.q, rng)
        b = modmath.random_residues(ntt_ctx.n, ntt_ctx.q, rng)
        lhs = ntt_ctx.forward(modmath.addmod_vec(a, b, ntt_ctx.q))
        rhs = modmath.addmod_vec(ntt_ctx.forward(a), ntt_ctx.forward(b),
                                 ntt_ctx.q)
        assert np.array_equal(lhs, rhs)

    def test_convolution_theorem(self, ntt_ctx):
        rng = np.random.default_rng(3)
        a = modmath.random_residues(ntt_ctx.n, ntt_ctx.q, rng)
        b = modmath.random_residues(ntt_ctx.n, ntt_ctx.q, rng)
        fast = ntt_ctx.negacyclic_multiply(a, b)
        slow = negacyclic_convolution_naive(a, b, ntt_ctx.q)
        assert np.array_equal(fast, slow)

    def test_negacyclic_wraparound_sign(self, ntt_ctx):
        # x^(n-1) * x = x^n = -1 in the ring.
        n, q = ntt_ctx.n, ntt_ctx.q
        a = np.zeros(n, dtype=np.int64)
        b = np.zeros(n, dtype=np.int64)
        a[n - 1] = 1
        b[1] = 1
        prod = ntt_ctx.negacyclic_multiply(a, b)
        expected = np.zeros(n, dtype=np.int64)
        expected[0] = q - 1
        assert np.array_equal(prod, expected)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            NttContext(97, 48)

    def test_rejects_incompatible_prime(self):
        with pytest.raises(ValueError):
            NttContext(97, 64)  # 96 not divisible by 128

    def test_large_word_ntt_roundtrip(self):
        """Exercise the paper's 54-bit word size (object-dtype path)."""
        n = 1 << 5
        q = generate_ntt_primes(1, 54, n)[0]
        ctx = NttContext(q, n)
        rng = np.random.default_rng(4)
        a = modmath.random_residues(n, q, rng)
        assert [int(v) for v in ctx.inverse(ctx.forward(a))] == \
            [int(v) for v in a]

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.integers(min_value=0, max_value=2**30 - 1),
                    min_size=64, max_size=64),
           st.lists(st.integers(min_value=0, max_value=2**30 - 1),
                    min_size=64, max_size=64))
    def test_convolution_property(self, a_list, b_list):
        n = 64
        q = generate_ntt_primes(1, 30, n)[0]
        ctx = NttContext(q, n)
        a = np.array([v % q for v in a_list], dtype=np.int64)
        b = np.array([v % q for v in b_list], dtype=np.int64)
        fast = ctx.negacyclic_multiply(a, b)
        slow = negacyclic_convolution_naive(a, b, q)
        assert np.array_equal(fast, slow)
