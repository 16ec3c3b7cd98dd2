"""Tests for ring elements: representation changes, ring axioms,
automorphisms."""

import numpy as np
import pytest

from repro.fhe.ntt import negacyclic_convolution_naive
from repro.fhe.params import CkksParameters
from repro.fhe.poly import (PolyContext, Representation,
                            conjugation_galois_element,
                            rotation_galois_element)


@pytest.fixture(scope="module")
def context():
    return PolyContext(CkksParameters.toy(), seed=42)


@pytest.fixture(scope="module")
def moduli(context):
    return context.params.moduli[:2]


class TestRepresentation:
    def test_roundtrip(self, context, moduli):
        p = context.random_uniform(moduli, Representation.COEFF)
        back = p.to_eval().to_coeff()
        for a, b in zip(p.limbs, back.limbs):
            assert np.array_equal(a, b)

    def test_idempotent_conversions(self, context, moduli):
        p = context.random_uniform(moduli, Representation.EVAL)
        assert p.to_eval() is p
        q = p.to_coeff()
        assert q.to_coeff() is q

    def test_mul_requires_eval(self, context, moduli):
        p = context.random_uniform(moduli, Representation.COEFF)
        with pytest.raises(ValueError):
            _ = p * p

    def test_incompatible_bases_rejected(self, context):
        p1 = context.random_uniform(context.params.moduli[:2])
        p2 = context.random_uniform(context.params.moduli[:3])
        with pytest.raises(ValueError):
            _ = p1 + p2


class TestRingAxioms:
    def test_addition_commutes(self, context, moduli):
        a = context.random_uniform(moduli)
        b = context.random_uniform(moduli)
        lhs, rhs = a + b, b + a
        for x, y in zip(lhs.limbs, rhs.limbs):
            assert np.array_equal(x, y)

    def test_multiplication_commutes(self, context, moduli):
        a = context.random_uniform(moduli)
        b = context.random_uniform(moduli)
        lhs, rhs = a * b, b * a
        for x, y in zip(lhs.limbs, rhs.limbs):
            assert np.array_equal(x, y)

    def test_distributivity(self, context, moduli):
        a = context.random_uniform(moduli)
        b = context.random_uniform(moduli)
        c = context.random_uniform(moduli)
        lhs = a * (b + c)
        rhs = a * b + a * c
        for x, y in zip(lhs.limbs, rhs.limbs):
            assert np.array_equal(x, y)

    def test_additive_inverse(self, context, moduli):
        a = context.random_uniform(moduli)
        zero = a + (-a)
        for limb in zero.limbs:
            assert not limb.any()

    def test_sub_matches_add_neg(self, context, moduli):
        a = context.random_uniform(moduli)
        b = context.random_uniform(moduli)
        lhs = a - b
        rhs = a + (-b)
        for x, y in zip(lhs.limbs, rhs.limbs):
            assert np.array_equal(x, y)

    def test_eval_mul_matches_schoolbook(self, context, moduli):
        a = context.random_uniform(moduli, Representation.COEFF)
        b = context.random_uniform(moduli, Representation.COEFF)
        prod = (a.to_eval() * b.to_eval()).to_coeff()
        # Full schoolbook check on one limb keeps runtime bounded.
        q = moduli[0]
        expected = negacyclic_convolution_naive(a.limbs[0], b.limbs[0], q)
        assert np.array_equal(prod.limbs[0], expected)


class TestScalarOps:
    def test_scalar_mul(self, context, moduli):
        a = context.random_uniform(moduli)
        out = a.scalar_mul(7)
        expected = a + a + a + a + a + a + a
        for x, y in zip(out.limbs, expected.limbs):
            assert np.array_equal(x, y)

    def test_scalar_mul_per_limb(self, context, moduli):
        """The backend kernel multiplies limb i by its own scalar."""
        a = context.random_uniform(moduli)
        backend = context.backend
        out = backend.to_limbs(backend.scalar_mul(a.data, [3, 5], moduli),
                               moduli)
        for limb, src, s, q in zip(out, a.limbs, [3, 5], moduli):
            assert np.array_equal(limb, (src * s) % q)

    def test_scalar_mul_per_limb_length_checked(self, context, moduli):
        a = context.random_uniform(moduli)
        with pytest.raises(ValueError):
            context.backend.scalar_mul(a.data, [1], moduli)


class TestAutomorphism:
    def test_commutes_with_the_ntt(self, context, moduli):
        """Either representation: a gather of evaluation slots in EVAL
        form is the coefficient permutation, transformed."""
        n = context.params.ring_degree
        a = context.random_uniform(moduli, Representation.COEFF)
        for g in (rotation_galois_element(1, n),
                  rotation_galois_element(100, n),
                  conjugation_galois_element(n)):
            lhs = a.to_eval().automorphism(g)
            rhs = a.automorphism(g).to_eval()
            assert lhs.rep is Representation.EVAL
            for x, y in zip(lhs.limbs, rhs.limbs):
                assert np.array_equal(x, y)

    def test_rejects_even_element(self, context, moduli):
        a = context.random_uniform(moduli, Representation.COEFF)
        with pytest.raises(ValueError):
            a.automorphism(4)

    def test_identity(self, context, moduli):
        a = context.random_uniform(moduli, Representation.COEFF)
        out = a.automorphism(1)
        for x, y in zip(out.limbs, a.limbs):
            assert np.array_equal(x, y)

    def test_composition_law(self, context, moduli):
        """psi_g1 o psi_g2 = psi_(g1*g2 mod 2N)."""
        n2 = 2 * context.params.ring_degree
        a = context.random_uniform(moduli, Representation.COEFF)
        g1, g2 = 5, 25
        lhs = a.automorphism(g2).automorphism(g1)
        rhs = a.automorphism((g1 * g2) % n2)
        for x, y in zip(lhs.limbs, rhs.limbs):
            assert np.array_equal(x, y)

    def test_conjugation_is_involution(self, context, moduli):
        g = conjugation_galois_element(context.params.ring_degree)
        a = context.random_uniform(moduli, Representation.COEFF)
        back = a.automorphism(g).automorphism(g)
        for x, y in zip(back.limbs, a.limbs):
            assert np.array_equal(x, y)

    def test_ring_homomorphism(self, context, moduli):
        """automorphism(a*b) == automorphism(a) * automorphism(b)."""
        g = rotation_galois_element(3, context.params.ring_degree)
        a = context.random_uniform(moduli, Representation.COEFF)
        b = context.random_uniform(moduli, Representation.COEFF)
        prod = (a.to_eval() * b.to_eval()).to_coeff()
        lhs = prod.automorphism(g)
        rhs = (a.automorphism(g).to_eval()
               * b.automorphism(g).to_eval()).to_coeff()
        for x, y in zip(lhs.limbs, rhs.limbs):
            assert np.array_equal(x, y)

    def test_rotation_galois_element_group(self, context):
        n = context.params.ring_degree
        g1 = rotation_galois_element(1, n)
        g5 = rotation_galois_element(5, n)
        composed = 1
        for _ in range(5):
            composed = (composed * g1) % (2 * n)
        assert composed == g5


class TestSamplers:
    def test_ternary_weight(self, context, moduli):
        p = context.random_ternary(moduli, hamming_weight=32)
        coeffs = p.limbs[0]
        q = moduli[0]
        nonzero = np.count_nonzero(coeffs)
        assert nonzero == 32
        assert all(int(c) in (0, 1, q - 1) for c in coeffs)

    def test_gaussian_is_small(self, context, moduli):
        p = context.from_signed_coeffs(context.gaussian_coeffs(3.2), moduli)
        q = moduli[0]
        centered = [int(c) if int(c) < q // 2 else int(c) - q
                    for c in p.limbs[0]]
        assert max(abs(c) for c in centered) < 8 * 3.2

    def test_limb_consistency(self, context, moduli):
        """All limbs of a sampled small poly represent the same integer."""
        p = context.from_signed_coeffs(context.gaussian_coeffs(3.2), moduli)
        q0, q1 = moduli
        for c0, c1 in zip(p.limbs[0], p.limbs[1]):
            v0 = int(c0) if int(c0) < q0 // 2 else int(c0) - q0
            v1 = int(c1) if int(c1) < q1 // 2 else int(c1) - q1
            assert v0 == v1
