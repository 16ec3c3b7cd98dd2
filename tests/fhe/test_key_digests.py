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

Encryption became the key owner's secret-key form,
``(NTT(m + e) - a*s, a)``, in place of the public-key form: a fresh
ciphertext draws ``a`` and one ``e`` where it drew ``u``, ``e0`` and
``e1``, and a key generator no longer draws a public key.  Switching keys
share the generator's RNG stream, so without the public key's draws in
front of them their draws shift.  All four digests were recorded at
commit 693746e, before that change, and re-recorded after it.  Old -> new:

* rotation, pw54: ``099311c8…`` -> ``8cd53330…``;
* conjugation, pw54: ``dc80eaf3…`` -> ``e0204508…``;
* rotation, toy: ``4835c721…`` -> ``89f80140…``;
* conjugation, toy: ``1e3e6643…`` -> ``bb69b5e9…``.

A switching key became one key per id, drawn once at ``max_level``
over the CRT-idempotent gadget: digit j's key carries ``P * 1_j * s'``
where it carried ``P * hat{Q}_j * s'``, and the digit is the unscaled
residue ``[c]_{Q_j}`` where it was ``[c * hat{Q}_j^{-1}]_{Q_j}``.  The
keys lose their level argument; both were already drawn at
``max_level`` here.  All four digests were recorded at commit 5c8a22f,
before that change, and re-recorded after it.  Old -> new:

* rotation, toy: ``89f80140…`` -> ``5e1a6260…``;
* conjugation, toy: ``bb69b5e9…`` -> ``09a3b197…``;
* rotation, pw54: ``8cd53330…`` -> ``ceb3ff2a…``;
* conjugation, pw54: ``e0204508…`` -> ``b3fbe781…``.

Switching keys became batch draws (``KeyGenerator.switching_keys``): a
batch makes one bounded uniform draw per modulus of C_L + P and one
Gaussian draw for all of its digits, where each digit drew its own, and
``b_j`` adds the gadget on digit j's own limbs.  Each getter is a batch
of one, so the keys take other draws from the same stream, and the
54-bit tier's uniform sampler became one bounded draw as well.  All
four digests were recorded at commit b703b70, before that change, and
re-recorded after it.  Old -> new:

* rotation, toy: ``5e1a6260…`` -> ``41ab378c…``;
* conjugation, toy: ``09a3b197…`` -> ``c5a7645e…``;
* rotation, pw54: ``ceb3ff2a…`` -> ``6e083bfc…``;
* conjugation, pw54: ``b3fbe781…`` -> ``9e812bc7…``.
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
