"""LABS's block order and parts, and the per-op profile, pinned.

A simulated cycle count is a sum over the blocks in LABS's order, and
``ExecutablePlan.profile`` splits that sum by op; a change to how the
partition is refined, how the simulator walks a plan or how a profile
folds its rows must leave the order, the parts and every row where they
were.  Floats are hashed by ``repr``: bit-identical or not at all.  The
pins are families ``labs`` and ``profile`` of ``tests/pins.json``.
Re-pin only deliberately: ``PYTHONPATH=src python -m tests.pins
--record``; CHANGES.md records every old -> new.
"""

import dataclasses
import hashlib

import pytest

import pins
from repro.fhe import CkksParameters
from repro.gme import ConcentratedTorus, LabsScheduler
from repro.gme.features import GME_FULL
from repro.gpusim.config import mi100
from repro.workloads import compile_workload

CATALOG = [(workload, "paper") for workload in ("boot", "helr", "resnet")]


def _plan(workload: str, preset: str):
    assert preset == "paper"
    return compile_workload(workload, CkksParameters.paper())


@pins.family("labs", CATALOG)
def labs_digest(workload: str, preset: str) -> str:
    """The block order and the parts LABS gives a plan's block table, as
    the simulator asks for them (the default GPU's torus, seed 2023,
    blocks grouped on their switching key): the node ids in order, and
    each node's part by id."""
    table = _plan(workload, preset).table
    order, result = LabsScheduler(ConcentratedTorus(mi100()), seed=2023) \
        .order(table)
    sha = hashlib.sha256()
    sha.update(repr([table.ids[row] for row in order]).encode())
    sha.update(b"\n")
    sha.update(repr([(table.ids[row], part)
                     for row, part in result.parts.items()]).encode())
    return sha.hexdigest()


@pins.family("profile", CATALOG)
def profile_digest(workload: str, preset: str) -> str:
    """Every ``OpProfile`` row of the plan under ``GME_FULL``, in row
    order, and the run's cycles."""
    profile = _plan(workload, preset).profile(GME_FULL)
    sha = hashlib.sha256()
    sha.update(repr(profile.total_cycles).encode())
    for op in profile.ops:
        sha.update(b"\n")
        sha.update(repr(dataclasses.astuple(op)).encode())
    return sha.hexdigest()


@pytest.mark.parametrize("workload,preset", CATALOG)
def test_labs_order_and_parts_hold_their_pins(workload, preset):
    assert labs_digest(workload, preset) \
        == pins.expected("labs", workload, preset)


@pytest.mark.parametrize("workload,preset", CATALOG)
def test_profile_rows_hold_their_pins(workload, preset):
    assert profile_digest(workload, preset) \
        == pins.expected("profile", workload, preset)


@pytest.mark.parametrize("workload,preset", CATALOG)
def test_a_plan_simulates_in_the_pinned_order(workload, preset):
    """The order :func:`labs_digest` pins is the one the plan's LABS runs
    walk its block table in."""
    plan = _plan(workload, preset)
    plan.simulate(GME_FULL)
    order, _ = LabsScheduler(ConcentratedTorus(mi100()), seed=2023) \
        .order(plan.table)
    assert plan._orders[True] == order
