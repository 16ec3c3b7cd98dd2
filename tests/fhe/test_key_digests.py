"""Switching-key bits pinned against the commit that still transformed
the automorphed secret.

``KeyGenerator._automorphed_secret`` used to apply x -> x^g to the
coefficient-form secret and transform the result (n + k forward rows per
rotation or conjugation key); it now gathers the evaluation-form secret
— the same integers with no transform.  The digests below were recorded
at commit 2b1b21a, before that change, on ``reference`` and ``stacked``
alike: one rotation key, then the conjugation key drawn after it, at the
int64 tier (``toy``) and the double-word tier (``pw54``).  They sit next
to the ciphertext digests of ``test_parent_digests.py``.

The Montgomery radix is a property of the modulus (``R = 1`` below
2**31, ``R = 2**64`` from there up), so ``toy`` keys are stored as their
plain values.  Their two digests were re-recorded at commit 3b90ed9,
before that change, as the sha256 of each key's limbs mapped out of
Montgomery form with ``from_mont()``: the key *values* did not move,
only their representation.  Old -> new:

* rotation: ``83adec51…`` -> ``4835c721…``;
* conjugation: ``8c2ec535…`` -> ``1e3e6643…``.
"""

import hashlib

import numpy as np
import pytest

from repro.fhe import CkksContext
from test_parent_digests import PRESETS

PARENT_KEY_DIGESTS = {
    ("rotation", "toy"):
        "4835c721cb5ea4b8f3e05f322a4a8283cc556efabbcb1a74119136480e9cde02",
    ("conjugation", "toy"):
        "1e3e664348dcd787da12529ffa7e52901061bb1c7eb06c61fb1d878a60cd2734",
    ("rotation", "pw54"):
        "9ccf16f070e91a35945bd7002c20f79c4cfa4721682441941263fc06f0cf062e",
    ("conjugation", "pw54"):
        "4060d5ebf2c45c1ec565c148f2d153f2dd9d9ddf5a628598446383a8c5a77317",
}


def _digest(key) -> str:
    sha = hashlib.sha256()
    for poly in list(key.bs) + list(key.as_):
        for limb in poly.limbs:
            sha.update(np.ascontiguousarray(limb, dtype=np.int64).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("backend", ["reference", "stacked"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_key_bits_match_the_parent_commit(preset, backend):
    params = PRESETS[preset]()
    keygen = CkksContext(params, seed=123, backend=backend).keygen
    # Same order as when recorded: the keys share one RNG stream.
    rotation = _digest(keygen.rotation_key(3, params.max_level))
    conjugation = _digest(keygen.conjugation_key(params.max_level))
    assert rotation == PARENT_KEY_DIGESTS[("rotation", preset)]
    assert conjugation == PARENT_KEY_DIGESTS[("conjugation", preset)]
