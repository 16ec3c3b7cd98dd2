"""The ``stacked`` backend must be bit-exact with ``reference`` everywhere.

Both backends run exact integer arithmetic, so every limb of every
intermediate polynomial must agree to the bit — across encryption, the
Table 2 evaluator blocks (including key switching and rescale), the
batched NTT, and the double-word (54-bit word) regime.

Also covers the registry itself: registration, unknown-name errors, and
the ``REPRO_FHE_BACKEND`` environment override.
"""

import hashlib

import numpy as np
import pytest

from repro.fhe import (CkksContext, CkksParameters, PolyContext,
                       available_backends, create_backend,
                       resolve_backend_name)
from repro.fhe.backend import (BACKEND_ENV_VAR, DEFAULT_BACKEND,
                               register_backend)
from repro.fhe.backend.registry import _REGISTRY
from repro.fhe.modmath import stack_residues
from repro.fhe.ntt import BatchedNttContext, NttContext
from repro.fhe.poly import Representation
from repro.fhe.primes import generate_ntt_primes


def limbs_equal(p1, p2):
    return all(np.array_equal(np.asarray(a, dtype=object),
                              np.asarray(b, dtype=object))
               for a, b in zip(p1.limbs, p2.limbs))


def ct_equal(ct1, ct2):
    return (ct1.level == ct2.level and ct1.scale == ct2.scale
            and limbs_equal(ct1.c0, ct2.c0) and limbs_equal(ct1.c1, ct2.c1))


@pytest.fixture(scope="module")
def contexts():
    params = CkksParameters.toy()
    return (CkksContext(params, seed=11, backend="reference"),
            CkksContext(params, seed=11, backend="stacked"))


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "reference" in names and "stacked" in names

    def test_default_backend_is_registered(self):
        assert DEFAULT_BACKEND in available_backends()

    def test_unknown_backend_raises_with_listing(self):
        with pytest.raises(ValueError, match="stacked"):
            create_backend("does-not-exist", CkksParameters.toy())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("stacked")(type("Dup", (), {}))

    def test_env_var_overrides_params(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert resolve_backend_name("stacked") == "reference"
        ctx = PolyContext(CkksParameters.toy(backend="stacked"), seed=1)
        assert ctx.backend.name == "reference"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        ctx = PolyContext(CkksParameters.toy(), seed=1, backend="stacked")
        assert ctx.backend.name == "stacked"

    def test_params_backend_field_reaches_context(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        ctx = PolyContext(CkksParameters.toy(backend="reference"), seed=1)
        assert ctx.backend.name == "reference"

    def test_registry_classes_expose_names(self):
        for name, cls in _REGISTRY.items():
            assert cls.name == name

    @pytest.mark.filterwarnings("error")
    def test_unregistered_env_value_raises_naming_the_variable(
            self, monkeypatch):
        """``accel`` was a gated name that fell back with a warning; a
        lane still setting it must fail, and say where the name is."""
        monkeypatch.setenv(BACKEND_ENV_VAR, "accel")
        with pytest.raises(ValueError) as err:
            PolyContext(CkksParameters.toy(), seed=1)
        assert str(err.value) == (
            "REPRO_FHE_BACKEND='accel' names no compute backend; "
            f"available: {', '.join(available_backends())}")
        # An explicit argument still bypasses the variable.
        assert PolyContext(CkksParameters.toy(), seed=1,
                           backend="stacked").backend.name == "stacked"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("how", ["argument", "params"])
    def test_unregistered_name_in_code_keeps_its_message(self, monkeypatch,
                                                         how):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with pytest.raises(ValueError) as err:
            if how == "argument":
                CkksContext(CkksParameters.toy(), backend="accel")
            else:
                PolyContext(CkksParameters.toy(backend="accel"), seed=1)
        assert str(err.value) == (
            "unknown compute backend 'accel'; "
            f"available: {', '.join(available_backends())}")


class TestBatchedNttBitExact:
    @pytest.mark.parametrize("bits,n", [(30, 64), (54, 64)],
                             ids=["int64", "dword-54bit"])
    def test_forward_inverse_match_per_limb(self, bits, n):
        moduli = tuple(generate_ntt_primes(3, bits, n))
        rng = np.random.default_rng(5)
        limbs = [np.array([int(rng.integers(0, 1 << 62)) % q
                           for _ in range(n)], dtype=np.int64)
                 for q in moduli]
        stack = stack_residues(limbs, moduli)
        batched = BatchedNttContext(moduli, n)
        fwd = batched.forward(stack)
        inv = batched.inverse(fwd)
        for i, q in enumerate(moduli):
            per_limb = NttContext(q, n)
            assert np.array_equal(np.asarray(fwd[i], dtype=object),
                                  np.asarray(per_limb.forward(limbs[i]),
                                             dtype=object))
        assert np.array_equal(np.asarray(inv, dtype=object),
                              np.asarray(stack, dtype=object))


class TestPipelineBitExact:
    """Same seed + different backend => byte-identical ciphertexts."""

    def test_encrypt(self, contexts):
        ref, stk = contexts
        msg = [0.5, -1.25, 2.0, 3.75]
        assert ct_equal(ref.encrypt(msg), stk.encrypt(msg))

    def test_he_add_sub(self, contexts):
        ref, stk = contexts
        a_r, a_s = ref.encrypt([1.0, 2.0]), stk.encrypt([1.0, 2.0])
        b_r, b_s = ref.encrypt([3.0, 4.0]), stk.encrypt([3.0, 4.0])
        assert ct_equal(ref.evaluator.he_add(a_r, b_r),
                        stk.evaluator.he_add(a_s, b_s))
        assert ct_equal(ref.evaluator.he_sub(a_r, b_r),
                        stk.evaluator.he_sub(a_s, b_s))

    def test_he_mult_with_keyswitch_and_rescale(self, contexts):
        ref, stk = contexts
        a_r, a_s = ref.encrypt([1.5, -2.0]), stk.encrypt([1.5, -2.0])
        assert ct_equal(ref.evaluator.he_mult(a_r, a_r),
                        stk.evaluator.he_mult(a_s, a_s))

    def test_he_rotate_and_conjugate(self, contexts):
        ref, stk = contexts
        a_r, a_s = ref.encrypt([1.0, 2.0, 3.0]), stk.encrypt([1.0, 2.0, 3.0])
        assert ct_equal(ref.evaluator.he_rotate(a_r, 2),
                        stk.evaluator.he_rotate(a_s, 2))
        assert ct_equal(ref.evaluator.he_conjugate(a_r),
                        stk.evaluator.he_conjugate(a_s))

    def test_scalar_blocks(self, contexts):
        ref, stk = contexts
        a_r, a_s = ref.encrypt([1.0, 2.0]), stk.encrypt([1.0, 2.0])
        assert ct_equal(ref.evaluator.scalar_add(a_r, 0.75),
                        stk.evaluator.scalar_add(a_s, 0.75))
        assert ct_equal(ref.evaluator.scalar_mult(a_r, 1.5),
                        stk.evaluator.scalar_mult(a_s, 1.5))

    def test_rescale_explicit(self, contexts):
        ref, stk = contexts
        a_r = ref.evaluator.scalar_mult(ref.encrypt([1.0, 2.0]), 2.0,
                                        rescale=False)
        a_s = stk.evaluator.scalar_mult(stk.encrypt([1.0, 2.0]), 2.0,
                                        rescale=False)
        assert ct_equal(ref.evaluator.rescale(a_r),
                        stk.evaluator.rescale(a_s))

    def test_decrypt_agrees_exactly(self, contexts):
        ref, stk = contexts
        a_r, a_s = ref.encrypt([0.5, 1.5]), stk.encrypt([0.5, 1.5])
        c_r = ref.evaluator.he_mult(ref.evaluator.he_add(a_r, a_r), a_r)
        c_s = stk.evaluator.he_mult(stk.evaluator.he_add(a_s, a_s), a_s)
        ref_coeffs = ref.decryptor.decrypt_to_coeffs(c_r)
        stk_coeffs = stk.decryptor.decrypt_to_coeffs(c_s)
        assert ref_coeffs == stk_coeffs


class TestPaperWordBitExact:
    """The 54-bit preset: both backends on the native double-word path
    must reproduce, bit for bit, the seed's object-dtype arithmetic — the
    acceptance bar for the native-kernel rewrite.  ``SEED_OBJECT_DIGEST``
    is that arithmetic's pipeline, recorded under the object-dtype tier
    the library had until a modulus of 2**56 or more was refused.
    Re-pin only deliberately; CHANGES.md records every old -> new."""

    SEED_OBJECT_DIGEST = \
        "e9a8d21a0d5f2fb54c4db1ff9ff02d45d15c8d8ddc8546196a3dcdcebeb22ba9"

    PARAMS_54 = CkksParameters._build(ring_degree=1 << 8, scale_bits=50,
                                      prime_bits=54, max_level=4,
                                      boot_levels=2, dnum=2,
                                      fft_iterations=1)

    def _pipeline_limbs(self, backend):
        ctx = CkksContext(self.PARAMS_54, seed=29, backend=backend)
        ev = ctx.evaluator
        a = ctx.encrypt([1.5, -2.0, 0.25])
        b = ctx.encrypt([0.5, 3.0, -1.0])
        outs = [ev.he_mult(a, b)]
        outs.append(ev.he_rotate(outs[0], 1))
        outs.append(ev.he_add(outs[1], outs[0]))
        outs.append(ev.he_conjugate(a))
        outs.append(ev.rescale(ev.scalar_mult(a, 1.5, rescale=False)))
        return [np.asarray(limb, dtype=object)
                for ct in outs for poly in (ct.c0, ct.c1)
                for limb in poly.limbs]

    @pytest.fixture(scope="class")
    def native_reference(self):
        return self._pipeline_limbs("reference")

    @pytest.mark.parametrize("backend", ["reference", "stacked"])
    def test_native_matches_seed_object_path(self, backend):
        sha = hashlib.sha256()
        for limb in self._pipeline_limbs(backend):
            sha.update(np.ascontiguousarray(limb, dtype=np.int64).tobytes())
        assert sha.hexdigest() == self.SEED_OBJECT_DIGEST

    def test_backends_bit_exact_at_54_bits(self, native_reference):
        stacked = self._pipeline_limbs("stacked")
        for a, b in zip(native_reference, stacked):
            assert np.array_equal(a, b)

    def test_native_storage_is_int64(self):
        ctx = CkksContext(self.PARAMS_54, seed=29, backend="stacked")
        ct = ctx.encrypt([1.0])
        assert ct.c0.data.dtype == np.int64
        for limb, q in zip(ct.c0.limbs, ct.c0.moduli):
            assert q.bit_length() >= 54
            assert np.asarray(limb).dtype == np.int64


class TestPolynomialStorage:
    def test_stacked_polynomial_holds_2d_array(self):
        ctx = PolyContext(CkksParameters.toy(), seed=3, backend="stacked")
        p = ctx.random_uniform(ctx.params.moduli)
        assert isinstance(p.data, np.ndarray) and p.data.ndim == 2
        assert p.data.shape == (len(p.moduli), ctx.params.ring_degree)

    def test_reference_polynomial_holds_limb_list(self):
        ctx = PolyContext(CkksParameters.toy(), seed=3, backend="reference")
        p = ctx.random_uniform(ctx.params.moduli)
        assert isinstance(p.data, list)

    def test_limb_view_matches_storage(self):
        ctx = PolyContext(CkksParameters.toy(), seed=3, backend="stacked")
        p = ctx.random_uniform(ctx.params.moduli)
        limbs = p.limbs
        assert len(limbs) == p.num_limbs
        for i, limb in enumerate(limbs):
            assert np.array_equal(limb, p.data[i])

    def test_cross_backend_construction(self):
        """A stacked context accepts per-limb lists and vice versa."""
        params = CkksParameters.toy()
        ref = PolyContext(params, seed=3, backend="reference")
        stk = PolyContext(params, seed=3, backend="stacked")
        p_ref = ref.random_uniform(params.moduli)
        from repro.fhe.poly import Polynomial
        p_stk = Polynomial(stk, p_ref.limbs, p_ref.moduli, p_ref.rep)
        assert limbs_equal(p_ref, p_stk)
        p_back = Polynomial(ref, p_stk.data, p_stk.moduli, p_stk.rep)
        assert limbs_equal(p_stk, p_back)

    def test_automorphism_and_basis_ops_agree(self):
        params = CkksParameters.toy()
        ref = PolyContext(params, seed=9, backend="reference")
        stk = PolyContext(params, seed=9, backend="stacked")
        p_r = ref.random_uniform(params.moduli, Representation.COEFF)
        p_s = stk.random_uniform(params.moduli, Representation.COEFF)
        assert limbs_equal(p_r.automorphism(5), p_s.automorphism(5))
        prefix = params.moduli[:-1]
        assert limbs_equal(p_r.at_basis(prefix), p_s.at_basis(prefix))
        sub = params.moduli[:2]
        assert limbs_equal(p_r.at_basis(sub), p_s.at_basis(sub))
        assert limbs_equal(-p_r, -p_s)
