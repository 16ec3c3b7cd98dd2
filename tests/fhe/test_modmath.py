"""Unit + property tests for modular arithmetic primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fhe import modmath

PRIMES = [17, 257, 65537, 1032193, (1 << 30) - 35, 2**54 - 33]  # mixed sizes
ODD_PRIMES = [p for p in PRIMES if p % 2 == 1]


@st.composite
def modulus_and_operands(draw):
    q = draw(st.sampled_from([17, 257, 65537, 1032193, 2**31 - 1,
                              2**54 + 77]))
    a = draw(st.integers(min_value=0, max_value=q - 1))
    b = draw(st.integers(min_value=0, max_value=q - 1))
    return q, a, b


class TestScalarOps:
    @given(modulus_and_operands())
    def test_addmod_matches_builtin(self, qab):
        q, a, b = qab
        assert modmath.addmod(a, b, q) == (a + b) % q

    @given(modulus_and_operands())
    def test_submod_matches_builtin(self, qab):
        q, a, b = qab
        assert modmath.submod(a, b, q) == (a - b) % q

    @given(modulus_and_operands())
    def test_barrett_classic_matches_builtin(self, qab):
        q, a, b = qab
        mu, k = modmath.barrett_precompute(q)
        assert modmath.barrett_reduce(a * b, q, mu, k) == (a * b) % q

    @given(modulus_and_operands())
    def test_barrett_single_subtraction_matches_builtin(self, qab):
        q, a, b = qab
        mu, k = modmath.barrett_precompute_single(q)
        assert modmath.barrett_reduce_single(a * b, q, mu, k) == (a * b) % q

    @given(modulus_and_operands())
    def test_montgomery_matches_builtin(self, qab):
        q, a, b = qab
        if q % 2 == 0:
            q += 1
            a %= q
            b %= q
        ctx = modmath.MontgomeryContext(q)
        am, bm = ctx.to_mont(a), ctx.to_mont(b)
        assert ctx.from_mont(ctx.mulmod(am, bm)) == (a * b) % q

    def test_invmod_roundtrip(self):
        q = 1032193
        for a in [1, 2, 3, 12345, q - 1]:
            assert (a * modmath.invmod(a, q)) % q == 1

    def test_invmod_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            modmath.invmod(0, 17)

    def test_barrett_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            modmath.barrett_precompute(1)

    def test_montgomery_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            modmath.MontgomeryContext(16)


class TestVectorOps:
    @pytest.mark.parametrize("q", PRIMES)
    def test_vector_ops_match_scalar(self, q):
        rng = np.random.default_rng(7)
        a = modmath.random_residues(64, q, rng)
        b = modmath.random_residues(64, q, rng)
        expect_add = [(int(x) + int(y)) % q for x, y in zip(a, b)]
        expect_sub = [(int(x) - int(y)) % q for x, y in zip(a, b)]
        expect_mul = [(int(x) * int(y)) % q for x, y in zip(a, b)]
        assert [int(v) for v in modmath.addmod_vec(a, b, q)] == expect_add
        assert [int(v) for v in modmath.submod_vec(a, b, q)] == expect_sub
        assert [int(v) for v in modmath.mulmod_vec(a, b, q)] == expect_mul

    @pytest.mark.parametrize("q", PRIMES)
    def test_negation(self, q):
        rng = np.random.default_rng(8)
        a = modmath.random_residues(32, q, rng)
        neg = modmath.negmod_vec(a, q)
        s = modmath.addmod_vec(a, neg, q)
        assert all(int(v) == 0 for v in s)

    @pytest.mark.parametrize("q", PRIMES)
    def test_random_residues_in_range(self, q):
        rng = np.random.default_rng(9)
        a = modmath.random_residues(1000, q, rng)
        assert all(0 <= int(v) < q for v in a)

    def test_scalar_mulmod_vec(self):
        q = 1032193
        rng = np.random.default_rng(10)
        a = modmath.random_residues(16, q, rng)
        out = modmath.mulmod_vec(a, 12345, q)
        assert [int(v) for v in out] == [(int(x) * 12345) % q for x in a]

    def test_54_bit_modulus_uses_native_dword_path(self):
        q = 2**54 - 33
        rng = np.random.default_rng(11)
        a = modmath.random_residues(8, q, rng)
        b = modmath.random_residues(8, q, rng)
        assert a.dtype == np.int64  # native storage at the paper word
        out = modmath.mulmod_vec(a, b, q)
        # Products are ~108 bits; correctness proves the double-word
        # Barrett reduction is exact (no int64 wrap).
        assert out.dtype == np.int64
        assert [int(v) for v in out] == [(int(x) * int(y)) % q
                                         for x, y in zip(a, b)]
