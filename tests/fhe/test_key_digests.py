"""Switching-key bits, pinned: sampler pins.

One rotation key, then the conjugation key drawn after it, at the int64
tier (``toy``) and the double-word tier (``pw54``), on ``reference`` and
``stacked`` alike.  The digests hash each key's ``.limbs``: plain
residues, with no Montgomery form.  These pins are about the library's
key sampling (its secret, its per-(id, digit) streams, its error
sampler), so they are family ``sampler`` of ``tests/pins.json``: a
sampler change moves them and no arithmetic pin.  Re-pin only
deliberately: ``PYTHONPATH=src python -m tests.pins --record``;
CHANGES.md records every old -> new.
"""

import hashlib

import numpy as np
import pytest

import pins
from repro.fhe import CkksContext

KINDS = ("rotation_key", "conjugation_key")


@pins.family("sampler", [(kind, preset) for kind in KINDS
                         for preset in pins.PRESETS])
def key_digest(kind: str, preset: str, backend: str | None = None) -> str:
    params = pins.PRESETS[preset]()
    keygen = CkksContext(params, seed=123, backend=backend).keygen
    key = keygen.rotation_key(3) if kind == "rotation_key" \
        else keygen.conjugation_key()
    sha = hashlib.sha256()
    for poly in list(key.bs) + list(key.as_):
        for limb in poly.limbs:
            sha.update(np.ascontiguousarray(limb, dtype=np.int64).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("backend", ["reference", "stacked"])
@pytest.mark.parametrize("preset", sorted(pins.PRESETS))
def test_key_bits_match_the_parent_commit(preset, backend):
    # Each (id, digit) has its own stream: the order does not matter.
    for kind in KINDS:
        assert key_digest(kind, preset, backend) \
            == pins.expected("sampler", kind, preset)
