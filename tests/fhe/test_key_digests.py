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
        "41ab378c7f6cd09a096e48a35460359d9818494a6db142621951a2d7ee6fa81d",
    ("conjugation", "toy"):
        "c5a7645e1d942f7d47d4ce410b0c8f0155f6e6c0cb9a22c790a162b2ce2a65ee",
    ("rotation", "pw54"):
        "6e083bfcbcc4c225b974b18b3fab74f95a8464f7b4b528fc34240f8ee004d3df",
    ("conjugation", "pw54"):
        "9e812bc778c0d8bc18a3400f26ef40d89297f6182c77948080bc525b3b451e25",
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
    rotation = _digest(keygen.rotation_key(3))
    conjugation = _digest(keygen.conjugation_key())
    assert rotation == PARENT_KEY_DIGESTS[("rotation", preset)]
    assert conjugation == PARENT_KEY_DIGESTS[("conjugation", preset)]
