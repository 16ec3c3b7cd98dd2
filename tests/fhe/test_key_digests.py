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

The double-word tier's product became one float64-estimated multiply
(``modmath._mulmod_f64``), which leaves no REDC to pay for, so ``R = 1``
on every modulus and ``pw54`` keys are stored as their plain values too.
Their two digests were re-recorded at commit 4a2b261, before that
change, the same way (``from_mont()`` of each key's limbs).  Old -> new:

* rotation: ``9ccf16f0…`` -> ``099311c8…``;
* conjugation: ``4060d5eb…`` -> ``dc80eaf3…``.

With ``R = 1`` everywhere the ``Polynomial.mont`` flag changed no
integer, and it is gone: keys are plain polynomials.  The digests hash
``.limbs`` alone, never the flag, so all four stand unchanged.
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
        "099311c82b3005400868a7e5baf2d89a40b0b506c9b4d5278f3ad5bf352619e3",
    ("conjugation", "pw54"):
        "dc80eaf31429cef8626703be5257bc2d78cdda2ace5a9ad52e85042218e53c91",
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
