"""The big-integer CRT pinned against the commit before its word planes left.

``test_baseconv_pins.py`` pins the two key-switch conversions the
``stacked`` backend runs and ``test_edge_pins.py`` a whole encode /
decrypt round; this module pins what is underneath both as fallback and
oracle: ``RnsBasis.convert_exact``, ``compose_vec``,
``compose_centered_vec`` and ``decompose_vec``.  The digests (families
``compose`` and ``decompose`` of ``tests/pins.json``) were recorded at
commit 6683b78 — composition by carry-save 32-bit word planes with a
float-estimated, plane-corrected quotient, per-target Horner folds —
and pass unchanged on both sides of the change; re-pin only
deliberately, with ``PYTHONPATH=src python -m tests.pins --record``.
Each digest covers values *and dtype*.

Bases: the special-prime bases of ``toy``, ``pw54`` (55-bit), ``test``
and ``boot_test`` (8 primes), converted to their ciphertext primes; a
mixed 30 + 55-bit basis; a single prime; a 62-bit basis.  Two modes:
``native`` is the library, which takes every basis and target below
2**56; ``forced_object`` is the Python-integer oracle (``bignum.py``),
and so is whatever the library refuses — the 62-bit basis and the 62-bit
target the others also convert to.  The oracle returns object-dtype
limbs where the digests were recorded with an object-dtype tier that
took those moduli (the library has no such tier now: a modulus of 2**56
or more is refused); its integers must be the library's, bit for bit.
Inputs: seeded residues, every residue 0 (the composed value 0), every
residue ``q_i - 1``, and residues whose composed value is exactly
``Q // 2``, ``Q // 2 + 1`` (the two sides of the centering decision) and
``Q - 1``.  ``decompose_vec`` takes composed values, negative integers,
values past 2**64, an int64 array, an object array and a ``uint64``
array holding values of 2**63 and more.
"""

import hashlib

import numpy as np
import pytest

import bignum
import pins
from repro.fhe import CkksParameters
from repro.fhe.modmath import NATIVE_SAFE_MODULUS
from repro.fhe.primes import generate_ntt_primes
from repro.fhe.rns import RnsBasis

N = 64

_P30 = generate_ntt_primes(4, 30, N)
_P55 = generate_ntt_primes(3, 55, N)
_P62 = generate_ntt_primes(4, 62, N)


def _preset(build) -> tuple[list[int], list[int]]:
    params = build()
    return list(params.special_moduli), list(params.moduli)


#: name -> (basis primes, target primes of ``convert_exact``).
BASES = {
    "toy": lambda: _preset(pins.PRESETS["toy"]),
    "pw54": lambda: _preset(pins.PRESETS["pw54"]),
    "test": lambda: _preset(CkksParameters.test),
    "boot_test": lambda: _preset(CkksParameters.boot_test),
    "mixed30+55": lambda: ([_P30[0], _P55[0], _P30[1], _P55[1]],
                           [_P30[2], _P55[2], _P62[3]]),
    "one_prime": lambda: ([_P55[0]], [_P30[0], _P55[1], _P62[3]]),
    "object62": lambda: (_P62[:3], [_P30[0], _P55[0], _P62[3]]),
}

MODES = ("native", "forced_object")

KINDS = ("seeded", "zero", "q_minus_1", "v_half", "v_half_plus_1",
         "v_q_minus_1")


def _stack_dtype(primes) -> type:
    return object if max(primes) >= NATIVE_SAFE_MODULUS else np.int64


def _library(mode: str, *moduli: int) -> bool:
    """Whether the library computes over ``moduli`` in ``mode``."""
    return mode == "native" and max(moduli) < NATIVE_SAFE_MODULUS


def inputs(basis: RnsBasis, kind: str) -> list[np.ndarray]:
    """One residue vector of length N per prime of ``basis``."""
    primes = basis.primes
    dtype = _stack_dtype(primes)

    def constant(value: int) -> list[np.ndarray]:
        return [np.array([r] * N, dtype=dtype)
                for r in basis.decompose(value)]

    if kind == "seeded":
        rng = np.random.default_rng(29)
        return [np.array([int(v) for v in rng.integers(0, q, size=N)],
                         dtype=dtype) for q in primes]
    if kind == "q_minus_1":
        return [np.array([q - 1] * N, dtype=dtype) for q in primes]
    big = basis.big_modulus
    return constant({"zero": 0, "v_half": big // 2,
                     "v_half_plus_1": big // 2 + 1,
                     "v_q_minus_1": big - 1}[kind])


def _update(sha, array: np.ndarray) -> None:
    sha.update(f"{array.dtype.str}:{array.shape};".encode())
    sha.update(",".join(str(int(v)) for v in array).encode())


COMPOSE_CASES = [(name, mode, kind) for name in sorted(BASES)
                 for mode in MODES for kind in KINDS]
DECOMPOSE_CASES = [(name, mode) for name in sorted(BASES) for mode in MODES]


@pins.family("compose", [(kind, mode, name)
                         for name, mode, kind in COMPOSE_CASES])
def compose_digest(kind: str, mode: str, name: str) -> str:
    primes, targets = BASES[name]()
    basis = RnsBasis(primes)
    limbs = inputs(basis, kind)
    library = _library(mode, *primes)
    sha = hashlib.sha256()
    for p in targets:
        if library and _library(mode, p):
            limb, = basis.convert_exact(limbs, [p])
        else:
            limb, = bignum.convert(limbs, primes, [p])
            limb = limb.astype(np.int64 if _library(mode, p) else object)
        _update(sha, limb)
    composed = basis.compose_vec(limbs) if library \
        else bignum.compose(limbs, primes).tolist()
    assert type(composed) is list and all(type(v) is int for v in composed)
    _update(sha, np.array(composed, dtype=object))
    _update(sha, basis.compose_centered_vec(limbs) if library
            else bignum.compose_centered(limbs, primes))
    return sha.hexdigest()


def decompose_inputs(basis: RnsBasis) -> dict[str, object]:
    big = basis.big_modulus
    rng = np.random.default_rng(31)
    words = [int(v) for v in rng.integers(0, 1 << 62, size=N)]
    composed = [(w * (big >> 40) + w) % big for w in words]
    small = rng.integers(-(1 << 62), 1 << 62, size=N, dtype=np.int64)
    return {
        "composed": composed,
        "negative": [-v for v in composed] + [-1, -big, -big - 1],
        "past_2_64": [(1 << 64) + w for w in words]
                     + [1 << 64, (1 << 64) - 1, (1 << 200) + 7, 0],
        "int64_array": small,
        "object_array": np.array([int(v) * 3 for v in small], dtype=object),
        "uint64_array": np.array(
            [(1 << 63) + w for w in words] + [(1 << 64) - 1, 1 << 63, 0],
            dtype=np.uint64),
    }


@pins.family("decompose", [(mode, name) for name, mode in DECOMPOSE_CASES])
def decompose_digest(mode: str, name: str) -> str:
    primes = BASES[name]()[0]
    basis = RnsBasis(primes)
    sha = hashlib.sha256()
    for what, values in decompose_inputs(basis).items():
        sha.update(what.encode())
        for limb in (basis.decompose_vec(values) if _library(mode, *primes)
                     else bignum.decompose(values, primes)):
            _update(sha, limb)
    return sha.hexdigest()


@pytest.mark.parametrize("name,mode,kind", COMPOSE_CASES)
def test_composition_bits_match_the_parent_commit(name, mode, kind):
    assert compose_digest(kind, mode, name) \
        == pins.expected("compose", kind, mode, name)


@pytest.mark.parametrize("name,mode", DECOMPOSE_CASES)
def test_decomposition_bits_match_the_parent_commit(name, mode):
    assert decompose_digest(mode, name) \
        == pins.expected("decompose", mode, name)


@pytest.mark.parametrize("name", sorted(BASES))
def test_the_pinned_inputs_compose_to_what_they_say(name):
    """The boundary kinds are built by ``decompose``; hold them to the
    scalar CRT so a pin cannot quietly stop covering the centering edge."""
    basis = RnsBasis(BASES[name]()[0])
    big = basis.big_modulus
    for kind, value in (("zero", 0), ("v_half", big // 2),
                        ("v_half_plus_1", big // 2 + 1),
                        ("v_q_minus_1", big - 1)):
        limbs = inputs(basis, kind)
        assert basis.compose([int(limb[0]) for limb in limbs]) == value
        centered = bignum.compose_centered(limbs, basis.primes)
        assert int(centered[0]) == (value - big if value > big // 2
                                    else value)
        if _library("native", *basis.primes):
            assert np.array_equal(basis.compose_centered_vec(limbs),
                                  centered)

