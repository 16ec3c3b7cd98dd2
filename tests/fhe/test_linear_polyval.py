"""Tests for homomorphic linear transforms and polynomial evaluation."""

import numpy as np
import pytest

from repro.fhe import CkksContext
from repro.fhe.linear import (LinearTransform, matrix_diagonals,
                              multiply_by_i)
from repro.fhe.polyval import (evaluate_chebyshev, evaluate_polynomial,
                               match_scale_level, normalize_group)


@pytest.fixture(scope="module")
def ctx():
    return CkksContext.toy(seed=21)


class TestDiagonals:
    def test_diagonal_extraction(self):
        m = np.array([[1, 2], [3, 4]], dtype=float)
        diags = matrix_diagonals(m)
        assert np.allclose(diags[0], [1, 4])
        assert np.allclose(diags[1], [2, 3])

    def test_zero_diagonals_skipped(self):
        m = np.eye(4)
        diags = matrix_diagonals(m)
        assert set(diags) == {0}

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_diagonals(np.zeros((2, 3)))

    def test_diagonal_reconstruction(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(8, 8))
        diags = matrix_diagonals(m)
        rows = np.arange(8)
        rebuilt = np.zeros((8, 8))
        for k, d in diags.items():
            rebuilt[rows, (rows + k) % 8] = d.real
        assert np.allclose(rebuilt, m)


class TestLinearTransform:
    def test_identity(self, ctx):
        n = ctx.params.num_slots
        rng = np.random.default_rng(1)
        z = rng.uniform(-1, 1, n)
        lt = LinearTransform(ctx.evaluator, np.eye(n))
        out = lt.apply(ctx.encrypt(z))
        assert np.max(np.abs(ctx.decrypt(out).real - z)) < 1e-3

    def test_dense_real_matrix(self, ctx):
        n = ctx.params.num_slots
        rng = np.random.default_rng(2)
        m = rng.normal(size=(n, n)) / np.sqrt(n)
        z = rng.uniform(-1, 1, n)
        lt = LinearTransform(ctx.evaluator, m)
        out = lt.apply(ctx.encrypt(z))
        assert np.max(np.abs(ctx.decrypt(out).real - m @ z)) < 1e-2

    def test_complex_matrix(self, ctx):
        n = ctx.params.num_slots
        rng = np.random.default_rng(3)
        m = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        lt = LinearTransform(ctx.evaluator, m)
        out = lt.apply(ctx.encrypt(z))
        assert np.max(np.abs(ctx.decrypt(out) - m @ z)) < 1e-2

    def test_consumes_one_level(self, ctx):
        n = ctx.params.num_slots
        lt = LinearTransform(ctx.evaluator, np.eye(n))
        ct = ctx.encrypt(np.ones(n) * 0.5)
        out = lt.apply(ct)
        assert out.level == ct.level - 1

    def test_sparse_diagonal_matrix_cheap(self, ctx):
        """A circulant shift matrix has one diagonal -> no giant steps."""
        n = ctx.params.num_slots
        m = np.zeros((n, n))
        rows = np.arange(n)
        m[rows, (rows + 1) % n] = 1.0   # left rotation by 1
        lt = LinearTransform(ctx.evaluator, m)
        assert lt.num_diagonals == 1
        rng = np.random.default_rng(4)
        z = rng.uniform(-1, 1, n)
        out = lt.apply(ctx.encrypt(z))
        assert np.max(np.abs(ctx.decrypt(out).real - np.roll(z, -1))) < 1e-3

    def test_dimension_mismatch_rejected(self, ctx):
        with pytest.raises(ValueError):
            LinearTransform(ctx.evaluator, np.eye(4))


class TestMultiplyByI:
    def test_exact_rotation_by_i(self, ctx):
        rng = np.random.default_rng(5)
        n = ctx.params.num_slots
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        ct = ctx.encrypt(z)
        out = multiply_by_i(ctx.evaluator, ct)
        assert out.level == ct.level           # free: no level consumed
        assert out.scale == ct.scale
        assert np.max(np.abs(ctx.decrypt(out) - 1j * z)) < 1e-4

    def test_four_applications_identity(self, ctx):
        z = np.array([0.3 - 0.7j, 1.0 + 0.1j])
        ct = ctx.encrypt(z)
        for _ in range(4):
            ct = multiply_by_i(ctx.evaluator, ct)
        assert np.max(np.abs(ctx.decrypt(ct)[:2] - z)) < 1e-4


class TestScaleManagement:
    def test_match_scale_level_preserves_value(self, ctx):
        v = np.array([0.5, -0.25, 0.75])
        ct = ctx.encrypt(v)
        adjusted = match_scale_level(ctx.evaluator, ct, ct.level,
                                     ct.scale * 1.37)
        assert abs(adjusted.scale - ct.scale * 1.37) < 1e-3 * ct.scale
        assert np.max(np.abs(ctx.decrypt(adjusted)[:3].real - v)) < 1e-3

    def test_match_scale_level_drops_levels(self, ctx):
        ct = ctx.encrypt([1.0])
        out = match_scale_level(ctx.evaluator, ct, ct.level - 2, ct.scale)
        assert out.level == ct.level - 2

    def test_a_scale_within_the_tolerance_keeps_its_level(self, ctx):
        """Scales 5e-8 apart are one scale to ``he_add``
        (``SCALE_TOLERANCE``), so matching them burns no level."""
        ct = ctx.encrypt([0.5], level=3)
        out = match_scale_level(ctx.evaluator, ct, 3, ct.scale * (1 + 5e-8))
        assert out.level == 3
        assert out is ct

    def test_cannot_raise_level(self, ctx):
        ct = ctx.encrypt([1.0], level=1)
        with pytest.raises(ValueError):
            match_scale_level(ctx.evaluator, ct, 2, ct.scale)

    def test_normalize_group(self, ctx):
        v = np.array([0.4])
        a = ctx.encrypt(v)
        b = ctx.evaluator.he_square(ctx.encrypt(v))       # deeper, drifted
        aligned = normalize_group(ctx.evaluator, [a, b])
        assert aligned[0].level == aligned[1].level
        assert abs(aligned[0].scale - aligned[1].scale) \
            < 1e-6 * aligned[0].scale
        total = ctx.evaluator.he_add(aligned[0], aligned[1])
        assert abs(ctx.decrypt(total)[0].real - (0.4 + 0.16)) < 1e-3


class TestPolynomialEvaluation:
    def test_quadratic(self, ctx):
        # Result values stay below the level-0 capacity q0/(2*Delta) ~ 2.
        v = np.linspace(-1, 1, 16)
        ct = ctx.encrypt(v)
        out = evaluate_polynomial(ctx.evaluator, ct, [0.5, -0.5, 0.25])
        expected = 0.5 - 0.5 * v + 0.25 * v ** 2
        assert np.max(np.abs(ctx.decrypt(out)[:16].real - expected)) < 1e-3

    def test_constant_and_linear(self, ctx):
        v = np.linspace(-1, 1, 8)
        ct = ctx.encrypt(v)
        out_c = evaluate_polynomial(ctx.evaluator, ct, [0.75])
        assert np.max(np.abs(ctx.decrypt(out_c)[:8].real - 0.75)) < 1e-3
        out_l = evaluate_polynomial(ctx.evaluator, ct, [0.5, 2.0])
        assert np.max(np.abs(ctx.decrypt(out_l)[:8].real
                             - (0.5 + 2 * v))) < 1e-3

    def test_sigmoid_degree3(self, ctx):
        """The HE-LR sigmoid approximation: 0.5 + 0.15x - 0.0015x^3."""
        coeffs = [0.5, 0.15012, 0.0, -0.0015930]
        v = np.linspace(-4, 4, 32)
        ct = ctx.encrypt(v)
        out = evaluate_polynomial(ctx.evaluator, ct, coeffs)
        expected = np.polyval(coeffs[::-1], v)
        assert np.max(np.abs(ctx.decrypt(out)[:32].real - expected)) < 5e-3

    def test_chebyshev_vs_numpy(self, ctx):
        """Chebyshev-basis evaluation of cos(x) on [-1, 1], degree 7."""
        cheb = np.polynomial.chebyshev.Chebyshev.interpolate(np.cos, 7)
        v = np.linspace(-0.9, 0.9, 16)
        ct = ctx.encrypt(v)
        out = evaluate_chebyshev(ctx.evaluator, ct, list(cheb.coef))
        assert np.max(np.abs(ctx.decrypt(out)[:16].real - np.cos(v))) < 1e-2
