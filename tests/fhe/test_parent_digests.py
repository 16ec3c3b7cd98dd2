"""Ciphertext bits pinned against the commit before the EVAL-domain rewrite.

The oracle tests in ``test_eval_domain_ops.py`` compare the EVAL-domain
automorphism, rescale and ModDown with this repo's own COEFF kernels;
this module compares them with what shipped.  The four digests below
were recorded at commit 5af5927 (COEFF round trips everywhere) by running
this very file; any later change to the integers a scoring replay, a
hoisted rotation batch, a conjugation or an HEMult produces — at the
int64 tier (``toy``) or the double-word tier (``pw54``) — changes one.

Encryption became the key owner's secret-key form,
``(NTT(m + e) - a*s, a)``, in place of the public-key form: a fresh
ciphertext draws ``a`` and one ``e`` where it drew ``u``, ``e0`` and
``e1``, and a key generator no longer draws a public key.  The encrypted
inputs moved, so all four digests were recorded at commit 693746e,
before that change, and re-recorded after it.  Old -> new:

* scoring, toy: ``c1c54bc3…`` -> ``dd16d78f…``;
* scoring, pw54: ``935455a5…`` -> ``400abb6e…``;
* galois_mult, toy: ``97a44f17…`` -> ``b076c9a9…``;
* galois_mult, pw54: ``1fb9312f…`` -> ``64813f77…``.

``rotate_sum`` became two radix-4 ``rotate_add`` groups (one hoist and
one ModDown each) in place of a log-tree of four ``he_rotate``, so the
scoring digests were recorded at commit 9084715, before that change,
and re-recorded after it; both ``galois_mult`` digests held.  Old ->
new:

* scoring, toy: ``dd16d78f…`` -> ``b8724dea…``;
* scoring, pw54: ``400abb6e…`` -> ``00da5f94…``.

A switching key became one key per id, drawn once at ``max_level``
over the CRT-idempotent gadget: digit j's key carries ``P * 1_j * s'``
where it carried ``P * hat{Q}_j * s'``, and the digit is the unscaled
residue ``[c]_{Q_j}`` where it was ``[c * hat{Q}_j^{-1}]_{Q_j}``.  Every
key product moved, so all four digests were recorded at commit 5c8a22f,
before that change, and re-recorded after it.  Old -> new:

* scoring, toy: ``b8724dea…`` -> ``aa0ec64f…``;
* scoring, pw54: ``00da5f94…`` -> ``019b02f2…``;
* galois_mult, toy: ``b076c9a9…`` -> ``7fe05ddd…``;
* galois_mult, pw54: ``64813f77…`` -> ``ffa04d32…``.

Switching keys became batch draws (``KeyGenerator.switching_keys``):
one bounded uniform draw per modulus of C_L + P and one Gaussian draw
for every digit of a batch, and a plan draws every key it names as one
batch before it replays, so every key moved; the 54-bit tier's uniform
sampler became one bounded draw, so the ``pw54`` inputs moved too.  All
four digests were recorded at commit b703b70, before that change, and
re-recorded after it.  Old -> new:

* scoring, toy: ``aa0ec64f…`` -> ``fa9d158c…``;
* scoring, pw54: ``019b02f2…`` -> ``b664060c…``;
* galois_mult, toy: ``7fe05ddd…`` -> ``84d570b3…``;
* galois_mult, pw54: ``ffa04d32…`` -> ``eb5d2ce0…``.
"""

import hashlib

import numpy as np
import pytest

from repro.fhe import CkksContext, CkksParameters
from repro.serve.workloads import scoring_workload


def _pw54() -> CkksParameters:
    """The 54-bit paper word on a toy ring (``bench.workloads.pw54``)."""
    return CkksParameters._build(ring_degree=1 << 10, scale_bits=50,
                                 prime_bits=54, max_level=5, boot_levels=2,
                                 dnum=2, fft_iterations=1)


PRESETS = {"toy": CkksParameters.toy, "pw54": _pw54}

PARENT_DIGESTS = {
    ("scoring", "toy"):
        "fa9d158c32a657de97bd11a102e59ad2e0289d0e9dac4fab0bf258bad16d37fa",
    ("scoring", "pw54"):
        "b664060cf44cfedcf3292fddbb607aae9fc1511c86659e5ee816abd42e94d6bc",
    ("galois_mult", "toy"):
        "84d570b30090d4d340174a17573c32e370f44128d02fb1404076c46631c97676",
    ("galois_mult", "pw54"):
        "eb5d2ce074edca60db1bd947a77b929c7e532ac12d34d9106bdbc1604af8961c",
}


def _digest(ciphertexts) -> str:
    sha = hashlib.sha256()
    for ct in ciphertexts:
        sha.update(f"{ct.level}:{ct.scale!r};".encode())
        for poly in (ct.c0, ct.c1):
            for limb in poly.limbs:
                sha.update(np.ascontiguousarray(limb, dtype=np.int64)
                           .tobytes())
    return sha.hexdigest()


def _inputs(params: CkksParameters) -> np.ndarray:
    return np.random.default_rng(7).uniform(-1.0, 1.0, params.num_slots)


def _scoring(params: CkksParameters) -> str:
    plan = scoring_workload(16).compile(params)
    ctx = CkksContext(params, seed=123)
    ct = ctx.encrypt(_inputs(params))
    return _digest([plan.execute(ctx, sources=[ct]).output])


def _galois_mult(params: CkksParameters) -> str:
    ctx = CkksContext(params, seed=123)
    ev = ctx.evaluator
    ct = ctx.encrypt(_inputs(params))
    other = ctx.encrypt(_inputs(params)[::-1])
    rotated = ev.hoisted_rotations(ct, [1, 2, 5])
    return _digest([rotated[1], rotated[2], rotated[5],
                    ev.he_conjugate(ct), ev.he_mult(ct, other)])


WORKLOADS = {"scoring": _scoring, "galois_mult": _galois_mult}


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_bits_match_the_parent_commit(workload, preset):
    got = WORKLOADS[workload](PRESETS[preset]())
    assert got == PARENT_DIGESTS[(workload, preset)]
