"""Transform outputs and twiddle tables pinned against the commit before
the int64 tier's NTT became two matrix products.

``test_parent_digests.py`` pins whole ciphertexts; this module pins the
layer underneath, where that change lands: what
``BatchedNttContext.forward`` / ``inverse`` return for a seeded stack,
and the per-modulus tables every transform path is derived from.  The
digests (families ``transform``, ``stack`` and ``object_tier`` of
``tests/pins.json``; re-pin only deliberately, with ``PYTHONPATH=src
python -m tests.pins --record``) were recorded at commit df51a20 (ten
butterfly stages on every tier, tables rebuilt per backend); they pass
unchanged on both sides of the change.  Presets: ``toy`` (int64 tier,
10 limbs, N = 2^10), ``test`` (int64 tier, 13 limbs, N = 2^12) and
``pw54`` (double-word tier, 10 limbs).  Inputs: reduced residues, every
residue at ``q - 1``, a signed centered lift (what rescale and ModDown
hand to ``forward``) and one row broadcast with stride 0 over all limbs
(how rescale passes it).

Family ``stack`` pins the same four input kinds on 3-limb stacks
away from the presets' ring degree, recorded at commit 27cb4ec (the
54-bit tier still on Shoup butterflies, a fixed ``n1 x n2`` grid on the
int64 tier) before the 54-bit tier's transform became matrix products
too: 54-bit and 30-bit primes at N = 8 and 64 (one factor now), 2^11
(32 x 64) and 2^13 (three factors), and one mixed-width stack — a 30-bit
row beside two 55-bit rows, the case the quotient estimate of the
split-word matmul must cover.

Family ``object_tier`` pins 3-limb stacks of 30-, 54- and 62-bit
primes as the object-dtype tier transformed them (the per-limb
butterflies in Python integers) before that tier left the library.  The
Python-integer oracle (``bignum.py``) reproduces them now, and below
2**56 the native context must too; a 62-bit prime the library refuses.
"""

import hashlib

import numpy as np
import pytest

import bignum
import pins
from repro.fhe import CkksParameters
from repro.fhe.modmath import NATIVE_SAFE_MODULUS, stack_native_class
from repro.fhe.ntt import BatchedNttContext, NttContext
from repro.fhe.primes import generate_ntt_primes

PRESETS = {**pins.PRESETS, "test": CkksParameters.test}


#: Ring degrees of the 3-limb stacks: one factor, 32 x 64, three factors.
STACK_DEGREES = (8, 64, 1 << 11, 1 << 13)

#: ``(word, N)`` of the 3-limb stacks pinned on the object-dtype tier.
OBJECT_STACKS = tuple((word, n) for word in (30, 54, 62)
                      for n in (64, 1 << 10))

KINDS = ("broadcast", "centered", "q_minus_1", "reduced")
TRANSFORM_CASES = [(preset, kind) for preset in PRESETS for kind in KINDS]
STACK_CASES = [(word, n, kind)
               for word, degrees in ((30, STACK_DEGREES), (54, STACK_DEGREES),
                                     ("mixed", (1 << 10,)))
               for n in degrees for kind in KINDS]
OBJECT_CASES = [(word, n, kind) for word, n in OBJECT_STACKS
                for kind in KINDS]


def _basis(params: CkksParameters) -> tuple[int, ...]:
    """The top-level extended basis: every modulus the preset owns."""
    return tuple(params.moduli) + tuple(params.special_moduli)


def seeded_inputs(moduli: tuple[int, ...], n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(17)
    q_col = np.array(moduli, dtype=np.int64).reshape(-1, 1)
    reduced = rng.integers(0, q_col, size=(len(moduli), n), dtype=np.int64)
    row = reduced[0] - np.where(reduced[0] > moduli[0] // 2, moduli[0], 0)
    return {
        "reduced": reduced,
        "q_minus_1": np.broadcast_to(q_col - 1, reduced.shape).copy(),
        "centered": reduced - np.where(reduced > q_col // 2, q_col, 0),
        "broadcast": np.broadcast_to(row, reduced.shape),
    }


def _sha(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return sha.hexdigest()


@pins.family("transform", [(kind, p) for p, kind in TRANSFORM_CASES])
def transform_digest(kind: str, preset: str) -> str:
    params = PRESETS[preset]()
    moduli, n = _basis(params), params.ring_degree
    ctx = BatchedNttContext(moduli, n)
    stack = seeded_inputs(moduli, n)[kind]
    return _sha(ctx.forward(stack), ctx.inverse(stack))


def stack_moduli(word, n: int) -> tuple[int, ...]:
    """Three ``word``-bit NTT primes, or the mixed-width stack."""
    if word == "mixed":
        return tuple(generate_ntt_primes(1, 30, n)
                     + generate_ntt_primes(2, 55, n))
    return tuple(generate_ntt_primes(3, word, n))


@pins.family("stack", [(kind, n, word) for word, n, kind in STACK_CASES])
def stack_digest(kind: str, n: int, word) -> str:
    moduli = stack_moduli(word, n)
    ctx = BatchedNttContext(moduli, n)
    stack = seeded_inputs(moduli, n)[kind]
    return _sha(ctx.forward(stack), ctx.inverse(stack))


def object_digests(word, n: int, kind: str) -> set[str]:
    """One digest per road to these integers: the oracle's transforms
    and, below 2**56, the native context's."""
    moduli = stack_moduli(word, n)
    stack = seeded_inputs(moduli, n)[kind]
    outputs = [(bignum.transform(moduli, stack, "forward"),
                bignum.transform(moduli, stack, "inverse"))]
    if max(moduli) < NATIVE_SAFE_MODULUS:
        ctx = BatchedNttContext(moduli, n)
        outputs.append((ctx.forward(stack), ctx.inverse(stack)))
    return {_sha(*pair) for pair in outputs}


@pins.family("object_tier",
             [(kind, n, word) for word, n, kind in OBJECT_CASES])
def object_digest(kind: str, n: int, word) -> str:
    digest, = object_digests(word, n, kind)
    return digest


@pins.family("transform/tables", [(p,) for p in PRESETS])
def table_digest(preset: str) -> str:
    params = PRESETS[preset]()
    tables = []
    for q in _basis(params):
        ctx = NttContext(q, params.ring_degree)
        tables += [ctx.psi_rev, ctx.psi_inv_rev, [ctx.n_inv]]
        if q >= 1 << 31:
            # The Shoup quotients floor(w * 2**64 / q) the double-word
            # tier stored until its products became one float64-estimated
            # multiply; derived from the tables, as uint64 bit patterns.
            tables += [np.array([(int(w) << 64) // q for w in table],
                                dtype=np.uint64).view(np.int64)
                       for table in (ctx.psi_rev, ctx.psi_inv_rev,
                                     [ctx.n_inv])]
    return _sha(*tables)


@pytest.mark.parametrize("preset,kind", sorted(TRANSFORM_CASES))
def test_transform_bits_match_the_parent_commit(preset, kind):
    assert transform_digest(kind, preset) \
        == pins.expected("transform", kind, preset)


@pytest.mark.parametrize("word,n,kind", sorted(STACK_CASES, key=str))
def test_stack_bits_match_the_parent_commit(word, n, kind):
    assert stack_digest(kind, n, word) == pins.expected("stack", kind, n, word)


@pytest.mark.parametrize("word,n,kind", sorted(OBJECT_CASES))
def test_object_tier_bits_match_the_parent_commit(word, n, kind):
    assert object_digests(word, n, kind) \
        == {pins.expected("object_tier", kind, n, word)}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_table_bits_match_the_parent_commit(preset):
    assert table_digest(preset) == pins.expected("transform/tables", preset)


def test_pinned_presets_sit_on_both_sides_of_the_tier_split():
    assert {name: stack_native_class(_basis(make()))
            for name, make in PRESETS.items()} \
        == {"toy": "int64", "test": "int64", "pw54": "dword"}
    assert {name: len(_basis(make())) for name, make in PRESETS.items()} \
        == {"toy": 10, "test": 13, "pw54": 10}

