"""Tests for the RNS basis: CRT composition and base conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.primes import generate_ntt_primes
from repro.fhe.rns import RnsBasis

PRIMES_30 = generate_ntt_primes(6, 30, 1 << 8, descending=False)
PRIMES_BIG = generate_ntt_primes(3, 54, 1 << 8)


@pytest.fixture(scope="module")
def basis():
    return RnsBasis(PRIMES_30[:4])


class TestCrt:
    def test_compose_decompose_roundtrip(self, basis):
        rng = np.random.default_rng(0)
        for _ in range(20):
            value = int(rng.integers(0, 1 << 60)) % basis.big_modulus
            assert basis.compose(basis.decompose(value)) == value

    @settings(deadline=None)
    @given(st.integers(min_value=0))
    def test_compose_decompose_property(self, value):
        basis = RnsBasis(PRIMES_30[:3])
        value %= basis.big_modulus
        assert basis.compose(basis.decompose(value)) == value

    def test_compose_centered_range(self, basis):
        q = basis.big_modulus
        for value in [0, 1, q // 2, q // 2 + 1, q - 1]:
            centered = basis.compose_centered(basis.decompose(value))
            assert -q // 2 <= centered <= q // 2
            assert centered % q == value

    def test_decompose_vec_matches_scalar(self, basis):
        values = [12345, 0, basis.big_modulus - 1, 987654321]
        limbs = basis.decompose_vec(values)
        for i, v in enumerate(values):
            assert [int(limb[i]) for limb in limbs] == basis.decompose(v)

    def test_compose_vec(self, basis):
        values = [3, 1 << 40, basis.big_modulus - 7]
        limbs = basis.decompose_vec(values)
        assert basis.compose_vec(limbs) == values

    def test_distinct_primes_required(self):
        with pytest.raises(ValueError):
            RnsBasis([17, 17])

    def test_wrong_residue_count_rejected(self, basis):
        with pytest.raises(ValueError):
            basis.compose([1, 2])

    def test_big_modulus_is_product(self, basis):
        prod = 1
        for q in basis.primes:
            prod *= q
        assert basis.big_modulus == prod


class TestBaseConversion:
    def test_exact_conversion_matches_centered_crt(self, basis):
        rng = np.random.default_rng(1)
        values = [int(v) % basis.big_modulus
                  for v in rng.integers(0, 1 << 62, size=16)]
        limbs = basis.decompose_vec(values)
        targets = PRIMES_30[4:6]
        out = basis.convert_exact(limbs, targets)
        for i, v in enumerate(values):
            centered = v if v <= basis.big_modulus // 2 \
                else v - basis.big_modulus
            for t, p in enumerate(targets):
                assert int(out[t][i]) == centered % p

    def test_paper_word_native_path(self):
        """54-bit basis: the word-split native lift stays exact."""
        basis = RnsBasis(PRIMES_BIG[:2])
        values = [int(basis.big_modulus // 3), 12345678901234567]
        limbs = basis.decompose_vec(values)
        assert all(np.asarray(limb).dtype == np.int64 for limb in limbs)
        out = basis.convert_exact(limbs, [PRIMES_BIG[2]])[0]
        for i, v in enumerate(values):
            centered = v if v <= basis.big_modulus // 2 \
                else v - basis.big_modulus
            assert int(out[i]) == centered % PRIMES_BIG[2]

    def test_subbasis(self, basis):
        sub = basis.subbasis(2)
        assert sub.primes == basis.primes[:2]
        assert sub.big_modulus == basis.primes[0] * basis.primes[1]
