"""Key-switch base conversions pinned against the commits before each
tier's conversions became split-word matrix products.

``test_parent_digests.py`` pins whole ciphertexts and
``test_transform_pins.py`` the transforms; this module pins the two
kernels in between: what ModDown's ``Division.lift`` (its exact lift,
:mod:`repro.fhe.rns`) and ``StackedBackend.mod_up`` (every digit)
return.  The digests
were recorded at commit 27cb4ec — the double-word tier lifting through
``RnsBasis.convert_exact`` word planes and raising digits by per-limb
Shoup sweeps, the int64 tier already on its integer matmuls — and pass
unchanged on both sides of the change (family ``baseconv`` of
``tests/pins.json``; re-pin only deliberately, with ``PYTHONPATH=src
python -m tests.pins --record``).  Inputs: seeded
residues, every residue at 0, ``p - 1``, ``p // 2`` and ``p // 2 + 1``,
and residues chosen so that the *scaled* residue ``y = [x * hat^-1]_p``
both kernels center sits at ``p // 2`` / ``p // 2 + 1``: the centering
edges, before and after the unpuncturing multiply.

The same family pins the int64 tier the same way, recorded at
commit be8af92 — the last with int64-only ModUp / lift branches beside
the kernel — for every context that change rerouted: ``toy`` below the
top level, ``test``, ``boot_test`` (7-limb digits) and the two one-digit
contexts whose row sums had kept them off the integer matmuls.
"""

import hashlib

import numpy as np
import pytest

import pins
from repro.fhe import CkksParameters, PolyContext
from repro.fhe.rns import RnsBasis, division


def _one_digit(max_level: int) -> CkksParameters:
    """One digit of ``max_level + 1`` limbs at the 30-bit word, raised
    over as many special primes plus one (``test_keyswitch.py`` /
    ``test_moddown_lift.py``): 16 limbs were past the int64 matmul's
    row-sum bound, 33 special primes past the int64 lift's."""
    return CkksParameters._build(
        ring_degree=1 << 8, scale_bits=29, prime_bits=30,
        max_level=max_level, dnum=1, boot_levels=4, fft_iterations=2)


PRESETS = {**pins.PRESETS, "test": CkksParameters.test,
           "boot_test": CkksParameters.boot_test,
           "digit16": lambda: _one_digit(15),
           "special33": lambda: _one_digit(31)}

#: preset -> key-switch levels pinned.
LEVELS = {"pw54": (5, 3, 1), "toy": (5, 3, 1), "test": (7,),
          "boot_test": (19, 9), "digit16": (15,), "special33": (31,)}

KINDS = ("seeded", "zero", "p_minus_1", "half", "half_plus_1",
         "y_half", "y_half_plus_1")


def inputs(basis: RnsBasis, n: int) -> dict[str, np.ndarray]:
    """One ``(len(basis), n)`` stack of reduced residues per kind."""
    primes = basis.primes
    p_col = np.array(primes, dtype=np.int64).reshape(-1, 1)

    def rows(values) -> np.ndarray:
        column = np.array(list(values), dtype=np.int64).reshape(-1, 1)
        return np.broadcast_to(column, (len(primes), n)).copy()

    def scaled_to(edge) -> np.ndarray:
        # x with [x * hat^-1]_p == edge(p): x = edge(p) * hat mod p.
        return rows(edge(p) * hat % p
                    for p, hat in zip(primes, basis.punctured))

    rng = np.random.default_rng(23)
    return {
        "seeded": rng.integers(0, p_col, size=(len(primes), n),
                               dtype=np.int64),
        "zero": rows(0 for _ in primes),
        "p_minus_1": rows(p - 1 for p in primes),
        "half": rows(p // 2 for p in primes),
        "half_plus_1": rows(p // 2 + 1 for p in primes),
        "y_half": scaled_to(lambda p: p // 2),
        "y_half_plus_1": scaled_to(lambda p: p // 2 + 1),
    }


CASES = [(preset, level, kind) for preset, levels in sorted(LEVELS.items())
         for level in levels for kind in KINDS]


@pins.family("baseconv", [(kind, level, preset)
                          for preset, level, kind in CASES])
def baseconv_digest(kind: str, level: int, preset: str) -> str:
    params = PRESETS[preset]()
    backend = PolyContext(params, seed=1, backend="stacked").backend
    ksctx = backend.keyswitch_context(level)
    n = params.ring_degree
    sha = hashlib.sha256()

    def update(array) -> None:
        assert array.dtype == np.int64
        sha.update(np.ascontiguousarray(array).tobytes())

    moddown = division(ksctx.extended, ksctx.num_ct)
    update(moddown.lift(inputs(moddown.basis, n)[kind]))
    for j, basis in enumerate(ksctx.digit_bases):
        update(backend.mod_up(inputs(basis, n)[kind], j, ksctx))
    return sha.hexdigest()


@pytest.mark.parametrize("preset,level,kind", CASES)
def test_baseconv_bits_match_the_parent_commit(preset, level, kind):
    assert baseconv_digest(kind, level, preset) \
        == pins.expected("baseconv", kind, level, preset)


def test_a_digit_too_wide_for_int64_sums_takes_the_same_matmul():
    """32 limbs in one digit at the 30-bit word: sums of 32 reduced
    products could leave int64, which once took such a context off the
    int64 tier's integer paths.  Every width binds the one kernel now —
    the split-word matmul with a single table word; the 34-term lift
    beside it cuts its operands into three words where this digit still
    fits two — and must still raise digits to the reference backend's
    integers."""
    params = PRESETS["special33"]()
    stacked = PolyContext(params, seed=1, backend="stacked").backend
    reference = PolyContext(params, seed=1, backend="reference").backend
    ksctx = stacked.keyswitch_context(params.max_level)
    moddown = division(ksctx.extended, ksctx.num_ct)
    for kernel, width, pieces in ((ksctx.modup_matmul, 32, 2),
                                  (moddown.lift_matmul, 34, 3)):
        assert (kernel.width, kernel.pieces, kernel.table_pieces) \
            == (width, pieces, 1)
    digit = inputs(ksctx.digit_bases[0], params.ring_degree)["seeded"]
    want = reference.mod_up(list(digit), 0,
                            reference.keyswitch_context(params.max_level))
    assert np.array_equal(stacked.mod_up(digit, 0, ksctx), np.stack(want))


@pytest.mark.parametrize("preset,level", [
    (preset, level) for preset, levels in sorted(LEVELS.items())
    for level in levels])
def test_reference_backend_converts_to_the_same_integers(preset, level):
    """The pins hold ``stacked``; the per-limb loops of ``reference`` —
    one ModUp loop for every word size, ``convert_exact`` as the lift —
    must land on them too."""
    params = PRESETS[preset]()
    stacked = PolyContext(params, seed=1, backend="stacked").backend
    reference = PolyContext(params, seed=1, backend="reference").backend
    ksctx = stacked.keyswitch_context(level)
    ks_ref = reference.keyswitch_context(level)
    moddown = division(ksctx.extended, ksctx.num_ct)
    n = params.ring_degree
    for kind in ("seeded", "y_half", "y_half_plus_1"):
        special = inputs(moddown.basis, n)[kind]
        assert np.array_equal(
            moddown.lift(special),
            np.stack(moddown.basis.convert_exact(list(special),
                                                 list(ks_ref.ct_moduli))))
        for j, basis in enumerate(ksctx.digit_bases):
            digit = inputs(basis, n)[kind]
            raised = reference.mod_up(list(digit), j, ks_ref)
            assert all(limb.dtype == np.int64 for limb in raised)
            assert np.array_equal(stacked.mod_up(digit, j, ksctx),
                                  np.stack(raised))

