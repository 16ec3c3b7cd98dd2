"""Switching-key bits, pinned.

One rotation key, then the conjugation key drawn after it, at the int64
tier (``toy``) and the double-word tier (``pw54``), on ``reference`` and
``stacked`` alike.  The digests hash each key's ``.limbs``: plain
residues, with no Montgomery form.  They sit next to the ciphertext
digests of ``test_parent_digests.py``.  Re-pin only deliberately, by
running this very file; CHANGES.md records every old -> new.
"""

import hashlib

import numpy as np
import pytest

from repro.fhe import CkksContext
from test_parent_digests import PRESETS

PARENT_KEY_DIGESTS = {
    ("rotation", "toy"):
        "e6b82021bda17c7476ef9dc8667c8a0252a5ba0e9d91169c7d082b80d59b76f4",
    ("conjugation", "toy"):
        "6aeb82608f31c83786c89eacfd0ddfe604ff6753de3c26f32194dd32700a899f",
    ("rotation", "pw54"):
        "da06e52a80fb08533e9527bc981601ba5b078b9b63785ee0873fd6ae53667701",
    ("conjugation", "pw54"):
        "f6b64991bcb390f43b3c021100c255c6b08dcccc6c93b37eab6fe62c616572d7",
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
    # Each (id, digit) has its own stream: the order does not matter.
    rotation = _digest(keygen.rotation_key(3))
    conjugation = _digest(keygen.conjugation_key())
    assert rotation == PARENT_KEY_DIGESTS[("rotation", preset)]
    assert conjugation == PARENT_KEY_DIGESTS[("conjugation", preset)]
