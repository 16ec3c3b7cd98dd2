"""Tests for the CKKS canonical-embedding encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.encoder import CkksEncoder
from repro.fhe.params import CkksParameters


@pytest.fixture(scope="module")
def encoder():
    return CkksEncoder(CkksParameters.toy())


class TestRoundtrip:
    def test_real_vector(self, encoder):
        rng = np.random.default_rng(0)
        values = rng.uniform(-10, 10, encoder.params.num_slots)
        pt = encoder.encode(values)
        decoded = encoder.decode(pt.coeffs, pt.scale)
        assert np.max(np.abs(decoded.real - values)) < 1e-4
        assert np.max(np.abs(decoded.imag)) < 1e-4

    def test_complex_vector(self, encoder):
        rng = np.random.default_rng(1)
        n = encoder.params.num_slots
        values = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        pt = encoder.encode(values)
        decoded = encoder.decode(pt.coeffs, pt.scale)
        assert np.max(np.abs(decoded - values)) < 1e-4

    def test_partial_vector_zero_padded(self, encoder):
        values = [1.0, 2.0, 3.0]
        pt = encoder.encode(values)
        decoded = encoder.decode(pt.coeffs, pt.scale)
        assert np.max(np.abs(decoded[:3].real - values)) < 1e-5
        assert np.max(np.abs(decoded[3:])) < 1e-5

    def test_too_many_values_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode([0.0] * (encoder.params.num_slots + 1))

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=1, max_size=16))
    def test_roundtrip_property(self, values):
        encoder = CkksEncoder(CkksParameters.toy())
        pt = encoder.encode(values)
        decoded = encoder.decode(pt.coeffs, pt.scale)
        assert np.max(np.abs(decoded[:len(values)].real
                             - np.array(values))) < 1e-3


class TestStructure:
    def test_coefficients_are_integers(self, encoder):
        """Either representation: one int64 array inside the word
        bound, Python integers beyond it."""
        pt = encoder.encode([1.5, -2.5])
        assert isinstance(pt.coeffs, np.ndarray)
        assert pt.coeffs.dtype == np.int64
        big = encoder.encode([1.5, -2.5], scale=2.0 ** 80)
        assert all(isinstance(c, int) for c in big.coeffs)

    def test_encoding_is_additive(self, encoder):
        """encode(a) + encode(b) decodes to a + b (linearity)."""
        a = np.array([1.0, 2.0, -3.0])
        b = np.array([0.5, -1.5, 2.5])
        pa = encoder.encode(a)
        pb = encoder.encode(b)
        summed = [x + y for x, y in zip(pa.coeffs, pb.coeffs)]
        decoded = encoder.decode(summed, pa.scale)
        assert np.max(np.abs(decoded[:3].real - (a + b))) < 1e-4

    def test_constant_encodes_to_constant_poly(self, encoder):
        pt = encoder.encode_constant(2.5)
        assert pt.coeffs[0] == int(round(2.5 * encoder.params.scale))
        assert all(c == 0 for c in pt.coeffs[1:])
        decoded = encoder.decode(pt.coeffs, pt.scale)
        assert np.max(np.abs(decoded.real - 2.5)) < 1e-9

    def test_constant_matches_full_encode(self, encoder):
        n = encoder.params.num_slots
        via_const = encoder.encode_constant(1.25)
        via_full = encoder.encode([1.25] * n)
        decoded_c = encoder.decode(via_const.coeffs, via_const.scale)
        decoded_f = encoder.decode(via_full.coeffs, via_full.scale)
        assert np.max(np.abs(decoded_c - decoded_f)) < 1e-6

    def test_custom_scale(self, encoder):
        pt = encoder.encode([1.0], scale=2.0 ** 15)
        assert pt.scale == 2.0 ** 15
        decoded = encoder.decode(pt.coeffs, pt.scale)
        assert abs(decoded[0].real - 1.0) < 1e-3

    def test_slot_exponents_are_powers_of_five(self, encoder):
        two_n = 2 * encoder.params.ring_degree
        e = 1
        for j in range(8):
            assert encoder.slot_exponents[j] == e
            e = (e * 5) % two_n

    def test_rotation_symmetry(self, encoder):
        """Encoding of rot(z) equals automorphism-permuted encoding of z:
        checked at the decode level -- decode(encode(z), rotated slots)."""
        rng = np.random.default_rng(3)
        n = encoder.params.num_slots
        z = rng.uniform(-1, 1, n)
        pt = encoder.encode(z)
        decoded = encoder.decode(pt.coeffs, pt.scale)
        # Slot j of the encoding evaluates at exponent 5^j; rotating the
        # input by r must shift decoded slots by r.
        pt_rot = encoder.encode(np.roll(z, -1))
        decoded_rot = encoder.decode(pt_rot.coeffs, pt_rot.scale)
        assert np.max(np.abs(decoded_rot[:n - 1] - decoded[1:n])) < 1e-4
