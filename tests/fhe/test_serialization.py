"""Tests for ciphertext serialization."""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.fhe import CkksContext, CkksParameters, Polynomial
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.modmath import NATIVE_SAFE_MODULUS
from repro.fhe.primes import generate_ntt_primes
from repro.fhe.serialization import (deserialize_ciphertext,
                                     serialize_ciphertext,
                                     serialized_size_matches_model)

#: Small ring, 54-bit word: every modulus is >= 2**31, so every product
#: takes the double-word kernel (the paper-word regime), on int64 limbs.
PARAMS_54 = CkksParameters._build(ring_degree=1 << 6, scale_bits=50,
                                  prime_bits=54, max_level=3, boot_levels=2,
                                  dnum=2, fft_iterations=1)


@pytest.fixture(scope="module")
def ctx():
    return CkksContext.toy(seed=71)


class TestSerialization:
    def test_roundtrip_preserves_plaintext(self, ctx):
        v = np.array([0.5, -0.75, 1.25])
        ct = ctx.encrypt(v)
        blob = serialize_ciphertext(ct)
        back = deserialize_ciphertext(blob, ctx.keygen.context)
        assert np.max(np.abs(ctx.decrypt(back)[:3].real - v)) < 1e-4

    def test_roundtrip_preserves_metadata(self, ctx):
        ct = ctx.encrypt([1.0], level=2)
        back = deserialize_ciphertext(serialize_ciphertext(ct),
                                      ctx.keygen.context)
        assert back.level == 2
        assert back.scale == ct.scale
        assert back.c0.moduli == ct.c0.moduli

    def test_roundtrip_supports_further_compute(self, ctx):
        v = np.array([0.5, 0.25])
        ct = deserialize_ciphertext(
            serialize_ciphertext(ctx.encrypt(v)), ctx.keygen.context)
        sq = ctx.evaluator.he_square(ct)
        assert np.max(np.abs(ctx.decrypt(sq)[:2].real - v ** 2)) < 1e-3

    def test_wrong_ring_rejected(self, ctx):
        other = CkksContext.test(seed=72)
        blob = serialize_ciphertext(ctx.encrypt([1.0]))
        with pytest.raises(ValueError):
            deserialize_ciphertext(blob, other.keygen.context)

    def test_size_sanity(self, ctx):
        ct = ctx.encrypt([0.1] * 16)
        assert serialized_size_matches_model(ct, ctx.params)

    def test_blob_is_bytes(self, ctx):
        blob = serialize_ciphertext(ctx.encrypt([1.0]))
        assert isinstance(blob, bytes)
        assert len(blob) > 1000

    def test_empty_blob_fails_size_model(self, ctx, monkeypatch):
        """A truncated/empty wire image must fall below the lower bound."""
        import repro.fhe.serialization as ser
        ct = ctx.encrypt([0.5] * 8)
        monkeypatch.setattr(ser, "serialize_ciphertext", lambda _ct: b"")
        assert not ser.serialized_size_matches_model(ct, ctx.params)


def _tampered(blob: bytes, edit) -> bytes:
    """``blob`` with ``edit(header, arrays)`` applied, re-saved."""
    with np.load(io.BytesIO(blob)) as loaded:
        arrays = {name: loaded[name] for name in loaded.files}
    header = json.loads(bytes(arrays["header"]).decode())
    edit(header, arrays)
    arrays["header"] = np.frombuffer(json.dumps(header).encode(),
                                     dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


class TestHostileBlobs:
    """``deserialize_ciphertext`` checks a blob against the context: the
    header's moduli are the context's chain at that level, and every limb
    is N residues below its modulus."""

    def test_a_residue_past_its_modulus_is_refused(self, ctx):
        ct = ctx.encrypt([1.0], level=3)
        q = ct.c0.moduli[1]

        def edit(header, arrays):
            arrays["c0_limb1"] = arrays["c0_limb1"].copy()
            arrays["c0_limb1"][7] = q + 5

        blob = _tampered(serialize_ciphertext(ct), edit)
        with pytest.raises(ValueError, match="c0 limb 1: "):
            deserialize_ciphertext(blob, ctx.keygen.context)

    def test_a_modulus_the_context_lacks_is_refused(self, ctx):
        ct = ctx.encrypt([1.0], level=3)
        wide = generate_ntt_primes(1, 62, ctx.params.ring_degree)[0]

        def edit(header, arrays):
            header["c1"]["moduli"][2] = wide

        blob = _tampered(serialize_ciphertext(ct), edit)
        with pytest.raises(ValueError, match=f"c1 limb 2: modulus {wide}"):
            deserialize_ciphertext(blob, ctx.keygen.context)

    def test_a_limb_count_off_the_level_is_refused(self, ctx):
        blob = _tampered(serialize_ciphertext(ctx.encrypt([1.0], level=3)),
                         lambda header, arrays: header.update(level=2))
        with pytest.raises(ValueError, match="c0: 4 limbs"):
            deserialize_ciphertext(blob, ctx.keygen.context)


class TestBigWordSerialization:
    """Regression: deserialized 54-bit limbs must be int64, the one
    storage every kernel computes in, and stay computable."""

    @pytest.fixture(scope="class", params=["reference", "stacked"])
    def big_ctx(self, request):
        return CkksContext(PARAMS_54, seed=54, backend=request.param)

    def test_load_restores_native_dtype(self, big_ctx):
        """54-bit limbs are native now: int64 on load, not object."""
        ct = big_ctx.encrypt([1.0, -0.5])
        back = deserialize_ciphertext(serialize_ciphertext(ct),
                                      big_ctx.keygen.context)
        for poly in (back.c0, back.c1):
            for limb, q in zip(poly.limbs, poly.moduli):
                assert q >= (1 << 31)
                assert np.asarray(limb).dtype == np.int64

    def test_load_dtype_matches_compute_helper(self, big_ctx):
        """Save/load and compute share one dtype, int64, at every modulus
        the parameters take; there are none from 2**56 up."""
        ct = big_ctx.encrypt([1.0])
        back = deserialize_ciphertext(serialize_ciphertext(ct),
                                      big_ctx.keygen.context)
        computed = big_ctx.evaluator.he_add(ct, ct)
        assert {np.asarray(limb).dtype for poly in (back.c0, computed.c0)
                for limb in poly.limbs} == {np.dtype(np.int64)}
        with pytest.raises(ValueError, match=f"{NATIVE_SAFE_MODULUS + 1}"):
            dataclasses.replace(PARAMS_54, special_moduli=(
                NATIVE_SAFE_MODULUS + 1,))

    def test_roundtrip_then_multiply_and_rescale(self, big_ctx):
        """The first multiply after a 54-bit round-trip must be exact."""
        v = np.array([0.5, -0.75, 1.25])
        ct = big_ctx.encrypt(v)
        back = deserialize_ciphertext(serialize_ciphertext(ct),
                                      big_ctx.keygen.context)
        prod = big_ctx.evaluator.he_mult(back, back)  # includes rescale
        direct = big_ctx.evaluator.he_mult(ct, ct)
        got = big_ctx.decrypt(prod)[:3].real
        assert np.max(np.abs(got - v ** 2)) < 1e-6
        # Bit-identical with the never-serialized path, not merely close.
        for a, b in zip(prod.c0.limbs + prod.c1.limbs,
                        direct.c0.limbs + direct.c1.limbs):
            assert np.array_equal(np.asarray(a, dtype=object),
                                  np.asarray(b, dtype=object))

    def test_roundtrip_then_rotate(self, big_ctx):
        values = np.array([1.0, 2.0, 3.0])
        ct = big_ctx.encrypt(values)
        back = deserialize_ciphertext(serialize_ciphertext(ct),
                                      big_ctx.keygen.context)
        rot = big_ctx.evaluator.he_rotate(back, 1)
        got = big_ctx.decrypt(rot)[:2].real
        assert np.max(np.abs(got - values[1:3])) < 1e-6

    def test_size_model_at_54_bits(self, big_ctx):
        ct = big_ctx.encrypt([0.25] * 4)
        assert serialized_size_matches_model(ct, PARAMS_54)

    def test_save_rejects_residues_beyond_int64(self, big_ctx):
        """A limb that is not int64 residues below its modulus — Python
        integers past 2**63, or int64 past q — raises instead of
        wrapping on the wire."""
        ct = big_ctx.encrypt([1.0])
        n, q = PARAMS_54.ring_degree, ct.c0.moduli[1]
        for bad in (np.array([(1 << 63) + 12345] * n, dtype=object),
                    np.full(n, q + 5, dtype=np.int64)):
            poly = Polynomial(big_ctx.keygen.context, ct.c0.limbs,
                              ct.c0.moduli, ct.c0.rep)
            poly.data = [ct.c0.limbs[0], bad] + list(ct.c0.limbs[2:])
            bad_ct = Ciphertext(c0=poly, c1=ct.c1, level=ct.level,
                                scale=ct.scale)
            with pytest.raises(ValueError, match="c0 limb 1: not"):
                serialize_ciphertext(bad_ct)
