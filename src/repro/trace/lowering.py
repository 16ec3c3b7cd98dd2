"""Lower an :class:`OpTrace` into the BlockSim block table.

Each non-transparent trace op becomes one row of a
:class:`~repro.blocksim.table.BlockTable` — a rotation group
(``rotate_add``) one rotation block per key, plus the adds of its sum;
plumbing ops (``SOURCE``/``MOD_DROP``/``COPY``/``REFRESH``) are
routed through, so data-flow edges connect real blocks directly.  A
``rescale=True`` call is already two ops in the trace (the recorder
writes the product and its ``RESCALE``), so each lowers to its own
block.  One walk appends every row, producers before consumers; no
graph is built (the table derives one for a caller that asks).

A row carries what the simulator's locality features consume:

* its ``key`` — the switching-key id on rotation/conjugation blocks,
  which is what :class:`~repro.gme.labs.LabsScheduler` groups on and
  what the key-residency window in the simulator tracks
  (relinearization keys are not LABS grouping candidates);
* its ``op_id`` — the id of the trace op it lowers — so per-block
  simulation can be folded back onto HE ops
  (:meth:`repro.engine.ExecutablePlan.profile`);

and beside it the two facts the DAG invariants read:

* ``keyswitch`` — dnum / digit-count / key id for *every* key-switch
  block, including HEMult relinearizations; a product left
  unrelinearized (no key switch, :func:`~repro.trace.ops.switches_key`)
  still lowers to the HEMult block, priced as a full HEMult, its shape
  naming no key and no dnum;
* ``refresh`` — the block consumes a value whose level was reset by a
  schematic refresh (an elided bootstrap), exempting its in-edges from
  the level-monotonicity invariant.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.blocksim.blocks import BlockType
from repro.blocksim.table import BlockTable

from .ir import OpKind, OpTrace, TraceOp
from .ops import OPS, OpSpec, key_ids

#: The block a rotation group's sum lowers to.
_SUM = OPS[OpKind.HE_ADD]
#: Bound once: an enum member lookup costs more than the rest of a
#: row's test.
_ROTATE, _REFRESH = BlockType.HE_ROTATE, OpKind.REFRESH


def lower_trace(trace: OpTrace) -> BlockTable:
    """The block table of one recorded execution."""
    table = BlockTable()
    ids, rows, preds = table.ids, table.rows, table.preds
    shapes, refreshes = table.keyswitch, table.refresh
    # op id -> (row or -1, went-through-refresh flag)
    resolved: dict[int, tuple[int, bool]] = {}
    counters: dict[tuple[str, str], int] = {}
    # An edge carries its producer's ciphertext, whose bytes are
    # computed once per level.
    edge_bytes = functools.cache(trace.params.ciphertext_bytes)

    def add_block(op: TraceOp, spec: OpSpec, block: OpSpec,
                  inputs: list[int], key: str | None, refresh: bool) -> int:
        """One ``block.block`` of ``op`` (whose row is ``spec``) fed by
        rows ``inputs``, streaming switching key ``key``; its row."""
        region, stem = op.region, block.stem
        seq = counters.get((region, stem), 0)
        counters[region, stem] = seq + 1
        ids.append(f"{region}/{stem}{seq}" if region else f"{stem}{seq}")
        switches = block is spec and spec.key is not None
        rows.append((block.block, getattr(op, spec.block_level), 1,
                     key if switches and key and block.block is _ROTATE
                     else None, op.op_id))
        # Each producer once, in the order it is first read.
        preds.append(tuple([(pred, edge_bytes(rows[pred][1]))
                            for pred in dict.fromkeys(inputs)]))
        shapes.append(_keyswitch_shape(op, key) if switches else None)
        refreshes.append(refresh)
        return len(rows) - 1

    for op in trace.ops:
        spec = OPS[op.kind]
        if spec.block is None:
            if op.inputs:
                row, refreshed = resolved[op.inputs[0]]
            else:
                row, refreshed = -1, False
            if op.kind is _REFRESH:
                refreshed = True
            resolved[op.op_id] = (row, refreshed)
            continue

        refresh = False
        inputs: list[int] = []
        for input_id in op.inputs:
            row, refreshed = resolved[input_id]
            refresh = refresh or refreshed
            if row >= 0:
                inputs.append(row)
        if spec.group is None:
            resolved[op.op_id] = (add_block(op, spec, spec, inputs, op.key,
                                            refresh), False)
            continue
        # A rotation group: one block per key off the shared input, then
        # ``input + rot_1 + ... + rot_m`` as a chain of adds.
        total = inputs[0] if inputs else -1
        for key in key_ids(spec, op.meta):
            rotated = add_block(op, spec, spec, inputs, key, refresh)
            total = add_block(op, spec, _SUM, [rotated] if total < 0
                              else [total, rotated], None, refresh)
        resolved[op.op_id] = (total, False)
    return table


def _keyswitch_shape(op: TraceOp, key: str | None) -> dict[str, Any]:
    """The hybrid-decomposition shape of a block of ``op`` streaming
    ``key``."""
    return {"key": key, "level": op.level,
            **{k: op.meta[k] for k in ("dnum", "digits") if k in op.meta}}
