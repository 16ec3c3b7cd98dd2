"""Traces, lowered DAGs and replayed residues, pinned.

Record, replay, the symbolic rules and lowering read
``repro.trace.ops.OPS``; a change to any of them must leave every
recorded row, every lowered block and every replayed residue where it
was, or move its pins on purpose.  Floats are hashed by ``repr``:
bit-identical or not at all.  The pins are families ``trace``, ``dag``
and ``replay`` of ``tests/pins.json``; a replay runs on the
sampler-free fixture's keys and encryption (``pins.fixture``).  Re-pin
only deliberately: ``PYTHONPATH=src python -m tests.pins --record``;
CHANGES.md records every old -> new.
"""

import hashlib
import json

import numpy as np
import pytest

import pins
from repro.fhe import CkksParameters
from repro.trace import schedule
from repro.workloads import compile_workload

CATALOG = ("boot", "helr", "resnet")

OFFLINE_PRESETS = {"paper": CkksParameters.paper,
                   "test": CkksParameters.test}


# -- symbolic record -> passes -> lower ---------------------------------------

def _trace_digest(trace) -> str:
    sha = hashlib.sha256()
    sha.update(f"{trace.name}|{trace.output_op_id}|{len(trace.ops)}\n"
               .encode())
    for op in trace.ops:
        sha.update(repr((op.op_id, op.kind.value, op.inputs, op.level,
                         op.out_level, repr(op.out_scale), op.key,
                         op.region, sorted(op.meta.items()))).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _dag_digest(graph) -> str:
    sha = hashlib.sha256()
    for node_id, attrs in graph.nodes(data=True):
        block = attrs["block"]
        sha.update(repr((node_id, block.block_id, block.block_type.value,
                         block.level,
                         sorted(block.metadata.items(),
                                key=lambda item: item[0]))).encode())
        sha.update(b"\n")
    for u, v, attrs in graph.edges(data=True):
        sha.update(repr((u, v, repr(attrs["bytes"]))).encode())
        sha.update(b"\n")
    return sha.hexdigest()


OFFLINE = [(workload, preset) for workload in CATALOG
           for preset in OFFLINE_PRESETS]


@pins.family("dag", OFFLINE)
def dag_digest(workload: str, preset: str) -> str:
    return _dag_digest(compile_workload(workload,
                                        OFFLINE_PRESETS[preset]()).graph)


@pytest.mark.parametrize("workload,preset", sorted(OFFLINE))
def test_recorded_rows_and_lowered_blocks_are_the_parents(workload, preset):
    plan = compile_workload(workload, OFFLINE_PRESETS[preset]())
    assert _trace_digest(plan.trace) == pins.expected("trace", workload,
                                                      preset)
    assert _dag_digest(plan.graph) == pins.expected("dag", workload, preset)


# -- real record -> replay ----------------------------------------------------

#: (workload, preset) -> the op ids ``plan.execute`` makes no value for:
#: a key-switching product replayed with ``rescale=True`` as the rescale
#: that reads it (``repro.trace.Schedule.fused_rescales``).  Scoring's square
#: is left unrelinearized, so it is not fused: replay makes its value.
REPLAY_OMITS = {("scoring", "toy"): set(), ("scoring", "pw54"): set(),
                ("affine", "toy"): set(), ("affine", "pw54"): set()}

REAL = [(workload, preset) for workload in pins.SERVED
        for preset in pins.PRESETS]


def _plan(workload: str, preset: str):
    return pins.SERVED[workload]().compile(pins.PRESETS[preset]())


@pins.family("trace", OFFLINE + REAL)
def trace_digest(workload: str, preset: str) -> str:
    plan = _plan(workload, preset) if preset in pins.PRESETS \
        else compile_workload(workload, OFFLINE_PRESETS[preset]())
    return _trace_digest(plan.trace)


@pins.family("replay", REAL)
def replay_digest(workload: str, preset: str) -> str:
    """The digest of every value ``plan.execute`` produced, op by op,
    on the fixture's keys and encryption.  Replay makes a value for
    every op but those of :data:`REPLAY_OMITS`."""
    plan = _plan(workload, preset)
    params = plan.params
    ctx = pins.fixture(params, pins.pin_id("replay", workload, preset))
    slots = np.random.default_rng(7).uniform(-1.0, 1.0, params.num_slots)
    run = plan.execute(ctx, sources=[ctx.encrypt(slots)])
    assert {op.op_id for op in plan.trace.ops} - set(run.values) \
        == REPLAY_OMITS[workload, preset]
    assert run.output is run.values[plan.trace.output_op_id]
    return pins.ct_digest(run.values[op.op_id] for op in plan.trace.ops
                          if op.op_id in run.values)


@pytest.mark.parametrize("workload,preset", sorted(REAL))
def test_replayed_residues_are_the_parents(workload, preset):
    assert trace_digest(workload, preset) \
        == pins.expected("trace", workload, preset)
    assert replay_digest(workload, preset) \
        == pins.expected("replay", workload, preset)


# -- replay's schedule --------------------------------------------------------

SCHEDULED = REAL + [(workload, "paper") for workload in CATALOG]


@pins.family("schedule", SCHEDULED)
def schedule_digest(workload: str, preset: str) -> str:
    """Replay's decisions about a plan, as canonical JSON: its Galois
    groups, fused (product, rescale) pairs, unrelinearized products,
    key ids, key level and entry level."""
    plan = _plan(workload, preset) if preset in pins.PRESETS \
        else compile_workload(workload, OFFLINE_PRESETS[preset]())
    sched = schedule(plan.trace)
    doc = {"groups": sorted([value, list(ops)] for value, ops
                            in sched.galois_groups.items()),
           "fused": sorted([product, rescale] for product, rescale
                           in sched.fused_rescales.items()),
           "unrelinearized": sorted(sched.unrelinearized),
           "key_ids": list(sched.key_ids), "key_level": sched.key_level,
           "entry_level": sched.entry_level}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()) \
        .hexdigest()


@pytest.mark.parametrize("workload,preset", sorted(SCHEDULED))
def test_the_schedule_is_the_parents(workload, preset):
    assert schedule_digest(workload, preset) \
        == pins.expected("schedule", workload, preset)
