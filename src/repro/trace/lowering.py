"""Lower an :class:`OpTrace` into a BlockSim workload DAG.

Each non-transparent trace op becomes one
:class:`~repro.blocksim.blocks.BlockInstance` node; plumbing ops
(``SOURCE``/``MOD_DROP``/``HOIST``/``COPY``/``REFRESH``) are routed
through, so data-flow edges connect real blocks directly.  Implicit
rescales (``he_mult(..., rescale=True)`` etc.) are expanded into
explicit ``RESCALE`` ops by :func:`repro.trace.passes.
expand_implicit_rescales` before lowering — :func:`lower_trace` applies
that pass itself for backwards compatibility, while the engine
(:mod:`repro.engine`) runs its full pass pipeline and calls
:func:`lower_expanded_trace` directly.

Node metadata carries what the simulator's locality features consume:

* ``key`` — the switching-key id on rotation/conjugation blocks, which
  is what :class:`~repro.gme.labs.LabsScheduler` groups on and what the
  key-residency window in the simulator tracks (relinearization keys
  are not LABS grouping candidates);
* ``keyswitch`` — dnum / digit-count / key id for *every* key-switch
  block, including HEMult relinearizations;
* ``hoist_group`` — rotations sharing one hoisted Decomp+ModUp;
* ``refresh`` — the block consumes a value whose level was reset by a
  schematic refresh (an elided bootstrap), exempting the edge from the
  level-monotonicity invariant.

Every block additionally records ``metadata["op_id"]`` — the id of the
trace op it lowers — so per-block simulation records can be joined back
onto HE ops (:meth:`repro.engine.ExecutablePlan.profile`).
"""

from __future__ import annotations

from typing import Any

from repro.blocksim.blocks import (BlockInstance, BlockType,
                                   ciphertext_bytes)
from repro.dag import DiGraph

from .ir import KEYSWITCH_KINDS, TRANSPARENT_KINDS, OpKind, OpTrace, TraceOp

#: Block type each op kind lowers to.
KIND_TO_BLOCK = {
    OpKind.SCALAR_ADD: BlockType.SCALAR_ADD,
    OpKind.SCALAR_MULT: BlockType.SCALAR_MULT,
    OpKind.SCALAR_MULT_INT: BlockType.SCALAR_MULT,
    OpKind.POLY_ADD: BlockType.POLY_ADD,
    OpKind.POLY_MULT: BlockType.POLY_MULT,
    OpKind.HE_ADD: BlockType.HE_ADD,
    OpKind.HE_SUB: BlockType.HE_ADD,
    OpKind.HE_MULT: BlockType.HE_MULT,
    OpKind.HE_SQUARE: BlockType.HE_MULT,
    OpKind.HE_ROTATE: BlockType.HE_ROTATE,
    OpKind.CONJUGATE: BlockType.HE_ROTATE,
    OpKind.RESCALE: BlockType.HE_RESCALE,
    OpKind.MOD_RAISE: BlockType.MOD_RAISE,
}

#: Short node-id stem per kind.
_KIND_STEM = {
    OpKind.SCALAR_ADD: "sadd",
    OpKind.SCALAR_MULT: "scalar",
    OpKind.SCALAR_MULT_INT: "scalar",
    OpKind.POLY_ADD: "padd",
    OpKind.POLY_MULT: "pmul",
    OpKind.HE_ADD: "add",
    OpKind.HE_SUB: "sub",
    OpKind.HE_MULT: "mult",
    OpKind.HE_SQUARE: "mult",
    OpKind.HE_ROTATE: "rot",
    OpKind.CONJUGATE: "conj",
    OpKind.RESCALE: "rescale",
    OpKind.MOD_RAISE: "modraise",
}


def lower_trace(trace: OpTrace, prefix: str = "") -> DiGraph:
    """Build the BlockSim DAG for one recorded execution.

    Convenience wrapper: expands implicit rescales first, then lowers.
    Compiled plans go through :func:`repro.engine.compile`, which runs
    the full pass pipeline before calling :func:`lower_expanded_trace`.
    """
    from .passes import expand_implicit_rescales
    return lower_expanded_trace(expand_implicit_rescales(trace), prefix)


def lower_expanded_trace(trace: OpTrace, prefix: str = "") -> DiGraph:
    """Lower a trace whose implicit rescales are already expanded."""
    params = trace.params
    graph = DiGraph()
    # op id -> (node id or None, went-through-refresh flag)
    resolved: dict[int, tuple[str | None, bool]] = {}
    counters: dict[tuple[str, str], int] = {}

    def node_name(op: TraceOp) -> str:
        stem = _KIND_STEM[op.kind]
        parts = [p for p in (prefix, op.region) if p]
        region = "/".join(parts)
        seq = counters.get((region, stem), 0)
        counters[(region, stem)] = seq + 1
        base = f"{region}/{stem}{seq}" if region else f"{stem}{seq}"
        return base

    def add_block(node_id: str, block_type: BlockType, level: int,
                  metadata: dict[str, Any]) -> None:
        graph.add_node(node_id, block=BlockInstance(
            block_id=node_id, block_type=block_type, level=level,
            metadata=metadata))

    for op in trace.ops:
        if op.kind in TRANSPARENT_KINDS:
            if op.inputs:
                node, refreshed = resolved[op.inputs[0]]
            else:
                node, refreshed = None, False
            if op.kind is OpKind.REFRESH:
                refreshed = True
            resolved[op.op_id] = (node, refreshed)
            continue

        block_type = KIND_TO_BLOCK[op.kind]
        # MOD_RAISE operates over the full chain; its block level is the
        # raised level, not the level-0 input.
        level = op.out_level if op.kind is OpKind.MOD_RAISE else op.level
        metadata: dict[str, Any] = {"op_id": op.op_id}
        if op.kind in KEYSWITCH_KINDS:
            metadata["keyswitch"] = {"key": op.key, "level": op.level,
                                     **{k: op.meta[k]
                                        for k in ("dnum", "digits")
                                        if k in op.meta}}
        if block_type is BlockType.HE_ROTATE and op.key:
            metadata["key"] = op.key
        if op.hoist_group is not None:
            metadata["hoist_group"] = op.hoist_group

        node_id = node_name(op)
        preds: list[str] = []
        for input_id in op.inputs:
            pred, refreshed = resolved[input_id]
            if refreshed:
                metadata["refresh"] = True
            if pred is not None:
                preds.append(pred)
        add_block(node_id, block_type, level, metadata)
        for pred in preds:
            pred_level = graph.nodes[pred]["block"].level
            graph.add_edge(pred, node_id,
                           bytes=ciphertext_bytes(params, pred_level))
        resolved[op.op_id] = (node_id, False)
    return graph
