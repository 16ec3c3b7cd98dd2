"""Semantics of the shape-only symbolic evaluator."""

import pytest

from repro.fhe.params import CkksParameters
from repro.trace import SymbolicEvaluator


@pytest.fixture(scope="module")
def params():
    return CkksParameters.toy()


@pytest.fixture()
def ev(params):
    return SymbolicEvaluator(params)


class TestLevels:
    def test_fresh_defaults_to_max_level(self, ev, params):
        ct = ev.fresh()
        assert ct.level == params.max_level
        assert ct.scale == params.scale

    def test_fresh_rejects_out_of_range(self, ev, params):
        with pytest.raises(ValueError):
            ev.fresh(level=params.max_level + 1)
        with pytest.raises(ValueError):
            ev.fresh(level=-1)

    def test_rescale_consumes_level_and_scale(self, ev, params):
        ct = ev.fresh(level=3, scale=params.scale ** 2)
        out = ev.rescale(ct)
        assert out.level == 2
        assert out.scale == pytest.approx(
            params.scale ** 2 / params.moduli[3])

    def test_rescale_at_level_zero_raises(self, ev):
        with pytest.raises(ValueError):
            ev.rescale(ev.fresh(level=0))

    def test_mod_drop(self, ev):
        ct = ev.fresh(level=4)
        assert ev.mod_drop(ct, 2).level == 2
        with pytest.raises(ValueError):
            ev.mod_drop(ct, 5)

    def test_binary_ops_align_to_lower_level(self, ev):
        a, b = ev.fresh(level=5), ev.fresh(level=2)
        assert ev.he_add(a, b).level == 2
        assert ev.he_mult(a, b, rescale=False).level == 2

    def test_mult_with_rescale_drops_one_level(self, ev):
        a = ev.fresh(level=4)
        assert ev.he_mult(a, a, rescale=True).level == 3
        assert ev.he_square(a, rescale=True).level == 3
        assert ev.scalar_mult(a, 2.0, rescale=True).level == 3
        assert ev.poly_mult(a, ev.plaintext(), rescale=True).level == 3

    def test_rotation_preserves_shape(self, ev):
        ct = ev.fresh(level=3)
        out = ev.he_rotate(ct, 5)
        assert (out.level, out.scale) == (ct.level, ct.scale)
        assert out is not ct

    def test_mod_raise_and_refresh(self, ev, params):
        ct = ev.fresh(level=0)
        assert ev.mod_raise(ct).level == params.max_level
        assert ev.refresh(ct, 3).level == 3
        with pytest.raises(ValueError):
            ev.refresh(ct, params.max_level + 1)


class TestScales:
    def test_mult_composes_scales(self, ev, params):
        a = ev.fresh(level=4)
        out = ev.he_mult(a, a, rescale=False)
        assert out.scale == pytest.approx(params.scale ** 2)

    def test_scalar_mult_scales_by_delta(self, ev, params):
        a = ev.fresh(level=4)
        out = ev.scalar_mult(a, 0.5, rescale=False)
        assert out.scale == pytest.approx(params.scale ** 2)

    def test_additive_ops_keep_scale(self, ev, params):
        a = ev.fresh(level=4)
        for out in (ev.scalar_add(a, 1.0), ev.scalar_mult_int(a, 3),
                    ev.poly_add(a, ev.plaintext()), ev.he_add(a, a),
                    ev.he_sub(a, a)):
            assert out.scale == params.scale


class TestHoisting:
    def test_hoisted_rotations_cover_requested_amounts(self, ev, params):
        ct = ev.fresh(level=3)
        out = ev.hoisted_rotations(ct, [0, 1, 7, 7 + params.num_slots])
        assert set(out) == {0, 1, 7}
        for rotated in out.values():
            assert rotated.level == 3

    def test_rotate_hoisted_matches_plain_shape(self, ev):
        ct = ev.fresh(level=4)
        direct = ev.he_rotate(ct, 3)
        via_hoist = ev.hoisted_rotations(ct, [3])[3]
        assert (direct.level, direct.scale) \
            == (via_hoist.level, via_hoist.scale)
