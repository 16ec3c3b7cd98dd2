"""Lower an :class:`OpTrace` into a BlockSim workload DAG.

Each non-transparent trace op becomes one
:class:`~repro.blocksim.blocks.BlockInstance` node — a rotation group
(``rotate_add``) one rotation block per key, plus the adds of its sum;
plumbing ops (``SOURCE``/``MOD_DROP``/``COPY``/``REFRESH``) are
routed through, so data-flow edges connect real blocks directly.  A
``rescale=True`` call is already two ops in the trace (the recorder
writes the product and its ``RESCALE``), so each lowers to its own
block.

Node metadata carries what the simulator's locality features consume:

* ``key`` — the switching-key id on rotation/conjugation blocks, which
  is what :class:`~repro.gme.labs.LabsScheduler` groups on and what the
  key-residency window in the simulator tracks (relinearization keys
  are not LABS grouping candidates);
* ``keyswitch`` — dnum / digit-count / key id for *every* key-switch
  block, including HEMult relinearizations; a product left
  unrelinearized (no key switch, :func:`~repro.trace.ops.switches_key`)
  still lowers to the HEMult block, priced as a full HEMult, its entry
  naming no key and no shape;
* ``refresh`` — the block consumes a value whose level was reset by a
  schematic refresh (an elided bootstrap), exempting the edge from the
  level-monotonicity invariant.

Every block additionally records ``metadata["op_id"]`` — the id of the
trace op it lowers — so per-block simulation records can be joined back
onto HE ops (:meth:`repro.engine.ExecutablePlan.profile`).
"""

from __future__ import annotations

import functools
from typing import Any

from repro.blocksim.blocks import BlockInstance, BlockType
from repro.dag import DiGraph

from .ir import OpKind, OpTrace, TraceOp
from .ops import OPS, OpSpec, key_ids

#: The block a rotation group's sum lowers to.
_SUM = OPS[OpKind.HE_ADD]


def lower_trace(trace: OpTrace) -> DiGraph:
    """Build the BlockSim DAG for one recorded execution."""
    params = trace.params
    graph = DiGraph()
    # op id -> (node id or None, went-through-refresh flag)
    resolved: dict[int, tuple[str | None, bool]] = {}
    counters: dict[tuple[str, str], int] = {}
    # node id -> level; an edge carries its producer's ciphertext, whose
    # bytes are computed once per level.
    levels: dict[str, int] = {}
    edge_bytes = functools.cache(params.ciphertext_bytes)

    def add_block(op: TraceOp, block: OpSpec, preds: list[str],
                  metadata: dict[str, Any]) -> str:
        """One ``block.block`` of ``op`` fed by ``preds``; its node id."""
        assert block.block is not None
        stem = block.stem
        seq = counters.get((op.region, stem), 0)
        counters[(op.region, stem)] = seq + 1
        node_id = f"{op.region}/{stem}{seq}" if op.region \
            else f"{stem}{seq}"
        level = levels[node_id] = getattr(op, OPS[op.kind].block_level)
        graph.add_node(node_id, block=BlockInstance(
            block_id=node_id, block_type=block.block, level=level,
            metadata={"op_id": op.op_id, **metadata}))
        for pred in preds:
            graph.add_edge(pred, node_id, bytes=edge_bytes(levels[pred]))
        return node_id

    for op in trace.ops:
        spec = OPS[op.kind]
        if spec.block is None:
            if op.inputs:
                node, refreshed = resolved[op.inputs[0]]
            else:
                node, refreshed = None, False
            if op.kind is OpKind.REFRESH:
                refreshed = True
            resolved[op.op_id] = (node, refreshed)
            continue

        metadata: dict[str, Any] = {}
        preds: list[str] = []
        for input_id in op.inputs:
            pred, refreshed = resolved[input_id]
            if refreshed:
                metadata["refresh"] = True
            if pred is not None:
                preds.append(pred)
        if spec.group is None:
            resolved[op.op_id] = (add_block(
                op, spec, preds, _key_metadata(op, op.key) | metadata),
                False)
            continue
        # A rotation group: one block per key off the shared input, then
        # ``input + rot_1 + ... + rot_m`` as a chain of adds.
        total = preds[0] if preds else None
        for key in key_ids(spec, op.meta):
            rotated = add_block(op, spec, preds,
                                _key_metadata(op, key) | metadata)
            total = add_block(op, _SUM, [rotated] if total is None
                              else [total, rotated],
                              {"refresh": True} if "refresh" in metadata
                              else {})
        resolved[op.op_id] = (total, False)
    return graph


def _key_metadata(op: TraceOp, key: str | None) -> dict[str, Any]:
    """What a block of ``op`` streaming ``key`` tells the simulator."""
    spec = OPS[op.kind]
    if spec.key is None:
        return {}
    metadata: dict[str, Any] = {"keyswitch": {
        "key": key, "level": op.level,
        **{k: op.meta[k] for k in ("dnum", "digits") if k in op.meta}}}
    if spec.block is BlockType.HE_ROTATE and key:
        metadata["key"] = key
    return metadata
