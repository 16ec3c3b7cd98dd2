"""Transform outputs and twiddle tables pinned against the commit before
the int64 tier's NTT became two matrix products.

``test_parent_digests.py`` pins whole ciphertexts; this module pins the
layer underneath, where that change lands: what
``BatchedNttContext.forward`` / ``inverse`` return for a seeded stack,
and the per-modulus tables every transform path is derived from.  The
digests were recorded at commit df51a20 (ten butterfly stages on every
tier, tables rebuilt per backend) by running this very file
(``python tests/fhe/test_transform_pins.py`` prints them); it passes
unchanged on both sides of the change.  Presets: ``toy`` (int64 tier,
10 limbs, N = 2^10), ``test`` (int64 tier, 13 limbs, N = 2^12) and
``pw54`` (double-word tier, 10 limbs).  Inputs: reduced residues, every
residue at ``q - 1``, a signed centered lift (what rescale and ModDown
hand to ``forward``) and one row broadcast with stride 0 over all limbs
(how rescale passes it).
"""

import hashlib

import numpy as np
import pytest

from repro.fhe import CkksParameters
from repro.fhe.modmath import stack_native_class
from repro.fhe.ntt import BatchedNttContext, NttContext
from test_parent_digests import PRESETS as _SCORING_PRESETS

PRESETS = {**_SCORING_PRESETS, "test": CkksParameters.test}

PARENT_TRANSFORM_DIGESTS = {
    ("pw54", "broadcast"):
        "21a82e840b5ff6507b00a019d3873db562416287f1301415ea970c438befa58b",
    ("pw54", "centered"):
        "bfe2a783b35426d967ea83d104174da0f07f44d97616283e5e7bad76f000e2a4",
    ("pw54", "q_minus_1"):
        "fdc23606332e65264ebd269b66a8389c508761ebcd37113781aa640a36037c61",
    ("pw54", "reduced"):
        "bfe2a783b35426d967ea83d104174da0f07f44d97616283e5e7bad76f000e2a4",
    ("test", "broadcast"):
        "0ffca175bcccdfbdec00e00b797b9a100072a1509c2bc53519c72c733c5ffadf",
    ("test", "centered"):
        "f441405023b524b7a64e6dcf45d2266a4eb169a7baf7b7d33aad92727c62cdaf",
    ("test", "q_minus_1"):
        "2f7fd54225e86daa52bb059710719af7683852dac81d71e556fc801392358e9a",
    ("test", "reduced"):
        "f441405023b524b7a64e6dcf45d2266a4eb169a7baf7b7d33aad92727c62cdaf",
    ("toy", "broadcast"):
        "ab0917ebacf1c16e8497682c430e50b4674fe67b5e418b9948b135da1c92195a",
    ("toy", "centered"):
        "3367473ccede4be6d50be2fac3de848fe44d1c745c30ee94d3322d4df65685c0",
    ("toy", "q_minus_1"):
        "ef4b447d0d01c08784559793d92b86372630183cd2e37ba9b3f914c26efe3d52",
    ("toy", "reduced"):
        "3367473ccede4be6d50be2fac3de848fe44d1c745c30ee94d3322d4df65685c0",
}

PARENT_TABLE_DIGESTS = {
    "pw54":
        "0eeb8bd88e10ef90beec2db0d46cd910ab447c6ffe2898192abee04c72c6f3c8",
    "test":
        "d775a6991601fb928bfbf9f967bad854c88d4e416e56b202b3eb6622b2056663",
    "toy":
        "6d1fb8e9ac4d9c3495ae2a6e2d4d33fca81ed88ec15f52e2ffef5e87b4fc5041",
}


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


def transform_digest(preset: str, kind: str) -> str:
    params = PRESETS[preset]()
    moduli, n = _basis(params), params.ring_degree
    ctx = BatchedNttContext(moduli, n)
    stack = seeded_inputs(moduli, n)[kind]
    return _sha(ctx.forward(stack), ctx.inverse(stack))


def table_digest(preset: str) -> str:
    params = PRESETS[preset]()
    tables = []
    for q in _basis(params):
        ctx = NttContext(q, params.ring_degree)
        tables += [ctx.psi_rev, ctx.psi_inv_rev, [ctx.n_inv]]
        if ctx.psi_rev_shoup is not None:
            # uint64 quotients: hash the bit patterns.
            tables += [ctx.psi_rev_shoup.view(np.int64),
                       ctx.psi_inv_rev_shoup.view(np.int64),
                       np.array([ctx.n_inv_shoup]).view(np.int64)]
    return _sha(*tables)


@pytest.mark.parametrize("preset,kind", sorted(PARENT_TRANSFORM_DIGESTS))
def test_transform_bits_match_the_parent_commit(preset, kind):
    assert transform_digest(preset, kind) \
        == PARENT_TRANSFORM_DIGESTS[(preset, kind)]


@pytest.mark.parametrize("preset", sorted(PARENT_TABLE_DIGESTS))
def test_table_bits_match_the_parent_commit(preset):
    assert table_digest(preset) == PARENT_TABLE_DIGESTS[preset]


def test_pinned_presets_sit_on_both_sides_of_the_tier_split():
    assert {name: stack_native_class(_basis(make()))
            for name, make in PRESETS.items()} \
        == {"toy": "int64", "test": "int64", "pw54": "dword"}
    assert {name: len(_basis(make())) for name, make in PRESETS.items()} \
        == {"toy": 10, "test": 13, "pw54": 10}


if __name__ == "__main__":
    for key in sorted(PARENT_TRANSFORM_DIGESTS):
        print(f"    {key!r}:\n        \"{transform_digest(*key)}\",")
    for key in sorted(PARENT_TABLE_DIGESTS):
        print(f"    {key!r}:\n        \"{table_digest(key)}\",")
