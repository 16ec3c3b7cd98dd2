"""The ``accel`` backend's kernels must be bit-exact with ``stacked``.

The accel backend replaces the stacked double-word sweeps with numba-JIT
scalar loops.  numba itself is optional (the execution container ships
numpy only), but the *algorithms* are plain Python: when numba is
missing, this module loads ``_accel_impl`` with a stub ``njit`` that
returns the function unchanged, so every kernel's loop structure and
word arithmetic is verified against the stacked oracles on every
install.  When numba is present (the CI accel lane) the same tests
exercise the real JIT-compiled kernels.
"""

import importlib
import sys
import types
from unittest import mock

import numpy as np
import pytest

from repro.fhe import CkksParameters
from repro.fhe.backend.stacked import StackedBackend
from repro.fhe.modmath import (force_object_dtype, stack_residues,
                               to_mont_stack)


def _load_impl():
    """Import ``_accel_impl`` — via a stub numba if the real one is absent.

    With the stub, ``register_backend`` is patched to a no-op so the
    pure-Python class never enters the registry (where it would shadow
    the gated registration the fallback tests rely on).
    """
    try:
        from repro.fhe.backend import _accel_impl
        return _accel_impl, True
    except ImportError:
        pass

    stub = types.ModuleType("numba")

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f

    stub.njit = njit
    with mock.patch.dict(sys.modules, {"numba": stub}):
        with mock.patch("repro.fhe.backend.registry.register_backend",
                        lambda name: (lambda cls: cls)):
            sys.modules.pop("repro.fhe.backend._accel_impl", None)
            impl = importlib.import_module("repro.fhe.backend._accel_impl")
    sys.modules.pop("repro.fhe.backend._accel_impl", None)
    return impl, False


IMPL, HAS_NUMBA = _load_impl()

# Small 54-bit parameter set: every modulus is on the double-word tier,
# the tier the JIT kernels target.
PARAMS = CkksParameters._build(ring_degree=1 << 8, scale_bits=50,
                               prime_bits=54, max_level=4, boot_levels=2,
                               dnum=2, fft_iterations=1)


@pytest.fixture(scope="module")
def accel():
    return IMPL.AccelBackend(PARAMS)


@pytest.fixture(scope="module")
def stacked():
    return StackedBackend(PARAMS)


def _random_stack(moduli, n, seed):
    rng = np.random.default_rng(seed)
    return stack_residues(
        [np.array([int(rng.integers(0, q)) for _ in range(n)],
                  dtype=np.int64) for q in moduli], moduli)


def _eq(a, b):
    return np.array_equal(np.asarray(a, dtype=object),
                          np.asarray(b, dtype=object))


class TestKernelsBitExact:
    def test_mul_matches_stacked(self, accel, stacked):
        moduli = PARAMS.moduli
        a = _random_stack(moduli, PARAMS.ring_degree, 1)
        b = _random_stack(moduli, PARAMS.ring_degree, 2)
        with np.errstate(over="ignore"):
            got = accel.mul(a, b, moduli)
        assert got.dtype == np.int64
        assert _eq(got, stacked.mul(a, b, moduli))

    def test_mont_mul_matches_stacked(self, accel, stacked):
        moduli = PARAMS.moduli
        am = to_mont_stack(_random_stack(moduli, PARAMS.ring_degree, 3),
                           moduli)
        bm = to_mont_stack(_random_stack(moduli, PARAMS.ring_degree, 4),
                           moduli)
        with np.errstate(over="ignore"):
            got = accel.mont_mul(am, bm, moduli)
        assert _eq(got, stacked.mont_mul(am, bm, moduli))

    def test_ntt_roundtrip_matches_stacked(self, accel, stacked):
        moduli = PARAMS.moduli[:2]
        data = _random_stack(moduli, PARAMS.ring_degree, 5)
        with np.errstate(over="ignore"):
            fwd = accel.ntt_forward(data, moduli)
            inv = accel.ntt_inverse(fwd, moduli)
        assert _eq(fwd, stacked.ntt_forward(data, moduli))
        assert _eq(inv, stacked.ntt_inverse(fwd, moduli))
        assert _eq(inv, data)

    def test_mod_up_matches_stacked(self, accel, stacked):
        ksctx = stacked.keyswitch_context(2)
        assert ksctx.modup_matmul.table_pieces == 2
        data = _random_stack(ksctx.ct_moduli, PARAMS.ring_degree, 6)
        digits = stacked.digit_decompose(data, ksctx)
        for j, digit in enumerate(digits):
            with np.errstate(over="ignore"):
                got = accel.mod_up(digit, j, ksctx)
            assert got.dtype == np.int64
            assert _eq(got, stacked.mod_up(digit, j, ksctx))


class TestTierFallbacks:
    def test_object_dtype_defers_to_stacked(self, accel, stacked):
        moduli = PARAMS.moduli
        with force_object_dtype():
            a = _random_stack(moduli, 32, 7)
            b = _random_stack(moduli, 32, 8)
            assert a.dtype == object
            assert _eq(accel.mul(a, b, moduli), stacked.mul(a, b, moduli))
            am = to_mont_stack(a, moduli)
            bm = to_mont_stack(b, moduli)
            assert _eq(accel.mont_mul(am, bm, moduli),
                       stacked.mont_mul(am, bm, moduli))

    def test_int64_tier_defers_to_stacked(self, accel, stacked):
        # Sub-2**31 moduli classify as "int64": the JIT guard must punt.
        moduli = (1032193, 1034113)
        a = _random_stack(moduli, 32, 9)
        b = _random_stack(moduli, 32, 10)
        assert _eq(accel.mul(a, b, moduli), stacked.mul(a, b, moduli))


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
class TestAccelPipelineBitExact:
    """With real numba, a full pipeline must match stacked limb-for-limb."""

    def test_pipeline_matches_stacked(self):
        from repro.fhe import CkksContext

        def limbs(backend):
            ctx = CkksContext(PARAMS, seed=29, backend=backend)
            ev = ctx.evaluator
            a = ctx.encrypt([1.5, -2.0, 0.25])
            b = ctx.encrypt([0.5, 3.0, -1.0])
            outs = [ev.he_mult(a, b)]
            outs.append(ev.he_rotate(outs[0], 1))
            outs.append(ev.he_add(outs[1], outs[0]))
            outs.append(ev.he_conjugate(a))
            return [np.asarray(limb, dtype=object)
                    for ct in outs for poly in (ct.c0, ct.c1)
                    for limb in poly.limbs]

        for x, y in zip(limbs("accel"), limbs("stacked")):
            assert np.array_equal(x, y)
