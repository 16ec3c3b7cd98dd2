"""Ciphertext bits, pinned.

The oracle tests in ``test_eval_domain_ops.py`` compare the EVAL-domain
automorphism, rescale and ModDown with this repo's own COEFF kernels;
this module holds them to recorded digests.  Any change to the integers
a scoring replay, a hoisted rotation batch, a conjugation or an HEMult
produces — at the int64 tier (``toy``) or the double-word tier
(``pw54``) — changes one.  Re-pin only deliberately, by running this
very file; CHANGES.md records every old -> new.
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
        "9feaa383c3342665d17bc3137a2b9204cfd4e87b7da39ccc5856ea89cd96cf05",
    ("scoring", "pw54"):
        "2aeacffdb30935d6b53af63da2978f8585a9288eff6df9fde011d9f1f3186603",
    ("galois_mult", "toy"):
        "ebb27cb80b4d7dfba928a7dfbd619bb719c2e3880e1da0307a82cd54ddb5cb88",
    ("galois_mult", "pw54"):
        "c778f48853c8aa3d364563c5bbe0df08e6efd9e6129e01892109e3f23a8e291f",
}


def _digest(ciphertexts) -> str:
    sha = hashlib.sha256()
    for ct in ciphertexts:
        sha.update(f"{ct.level}:{ct.scale!r};".encode())
        for poly in ct.components:
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
