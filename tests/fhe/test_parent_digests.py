"""Ciphertext bits, pinned.

The oracle tests in ``test_eval_domain_ops.py`` compare the EVAL-domain
automorphism, rescale and ModDown with this repo's own COEFF kernels;
this module holds them to recorded digests (family ``arithmetic`` of
``tests/pins.json``).  Any change to the integers a scoring replay, a
hoisted rotation batch, a conjugation, an HEMult or one HE-LR training
step produces — at the int64 tier (``toy``, and ``test`` for HE-LR) or
the double-word tier (``pw54``) — changes one.  Keys and encryptions
come from the sampler-free fixture (``pins.fixture``), so a change of
the library's samplers moves none.  Re-pin only deliberately:
``PYTHONPATH=src python -m tests.pins --record``; CHANGES.md records
every old -> new.
"""

import hashlib

import numpy as np
import pytest

import pins
from repro.fhe import CkksParameters
from repro.serve.workloads import scoring_workload
from repro.workloads import EncryptedLogisticRegression


def _inputs(params: CkksParameters) -> np.ndarray:
    return np.random.default_rng(7).uniform(-1.0, 1.0, params.num_slots)


def _scoring(params: CkksParameters, tag: str) -> str:
    plan = scoring_workload(16).compile(params)
    ctx = pins.fixture(params, tag)
    ct = ctx.encrypt(_inputs(params))
    return pins.ct_digest([plan.execute(ctx, sources=[ct]).output])


def _galois_mult(params: CkksParameters, tag: str) -> str:
    ctx = pins.fixture(params, tag)
    ev = ctx.evaluator
    ct = ctx.encrypt(_inputs(params))
    other = ctx.encrypt(_inputs(params)[::-1])
    rotated = ev.hoisted_rotations(ct, [1, 2, 5])
    return pins.ct_digest([rotated[1], rotated[2], rotated[5],
                           ev.he_conjugate(ct), ev.he_mult(ct, other)])


WORKLOADS = {"scoring": _scoring, "galois_mult": _galois_mult}


@pins.family("arithmetic", [(workload, preset) for workload in WORKLOADS
                            for preset in pins.PRESETS])
def workload_digest(workload: str, preset: str) -> str:
    return WORKLOADS[workload](pins.PRESETS[preset](),
                               pins.pin_id("arithmetic", workload, preset))


@pytest.mark.parametrize("preset", sorted(pins.PRESETS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_bits_match_the_parent_commit(workload, preset):
    assert workload_digest(workload, preset) \
        == pins.expected("arithmetic", workload, preset)


#: At ``toy`` every ``he_add`` of a step meets its larger scale first,
#: so only ``pw54`` and ``test`` read how a sum's scale is labelled.
HELR_PRESETS = {**pins.PRESETS, "test": CkksParameters.test}


@pins.family("arithmetic/helr_train_step", [(p,) for p in HELR_PRESETS])
def helr_digest(preset: str) -> str:
    """The bytes of the weights one HE-LR step decrypts, from weights
    that are not zero, so every term of the weighted sum is computed."""
    params = HELR_PRESETS[preset]()
    ctx = pins.fixture(params, pins.pin_id("arithmetic/helr_train_step",
                                           preset))
    rng = np.random.default_rng(5)
    features = rng.uniform(-1, 1, size=(16, 3))
    labels = (features @ np.array([1.0, -1.5, 0.5]) > 0).astype(float)
    model = EncryptedLogisticRegression(ctx, num_features=3)
    model.weights = np.array([0.5, -0.25, 0.75])
    weights = model.train_step(features, labels)
    return hashlib.sha256(weights.tobytes()).hexdigest()


@pytest.mark.parametrize("preset", sorted(HELR_PRESETS))
def test_one_helr_step_decrypts_to_the_pinned_weights(preset):
    assert helr_digest(preset) \
        == pins.expected("arithmetic/helr_train_step", preset)
