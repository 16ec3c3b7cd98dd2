"""Structural invariants of a recorded trace and of its lowered DAG.

The engine (:mod:`repro.engine`) compiles a program as record ->
:func:`validate_trace` -> lower -> :func:`dag_violations`; nothing
rewrites a trace in between.  :func:`validate_trace` holds the op stream
to its rows of the op table (:mod:`repro.trace.ops`): dense, ordered
ids, inputs that reference earlier ops, levels in range, every op with
the input count, key and output level its row prescribes.

:func:`dag_violations` returns the list of structural problems of a
block table (empty = healthy), and :func:`assert_workload_dag` raises
with the full list; a hand-built graph is read into a table
(``BlockTable(graph)``) and checked the same way.  DAG invariants:

* the table is acyclic (Kahn's algorithm over its predecessor rows) and
  every node carries a ``BlockInstance``;
* every edge carries positive ``bytes``;
* block levels are within the parameter range;
* levels are monotone non-increasing along edges, except into
  ``ModRaise`` blocks (the bootstrap entry lift) and blocks marked
  ``refresh`` (a schematic level reset / elided bootstrap);
* every ``HERotate`` block names its switching key, which LABS grouping
  and the key-residency window depend on;
* optionally (lowered tables), every key-switch block — rotations *and*
  HEMult relinearizations — carries its ``keyswitch`` shape (the
  hybrid decomposition).

A problem names its node ids; problems come in the order a walk of the
graph would find them: the cycle, then each node's, then each edge's
(by source, then by the order its edges were added).
"""

from __future__ import annotations

from repro.blocksim.blocks import BlockType
from repro.blocksim.table import BlockTable
from repro.dag import DiGraph
from repro.fhe.params import CkksParameters

from .ir import OpTrace
from .ops import (OPS, expected_out_level, structural_problems,
                  switches_key)

#: Block types that perform a key switch.
KEYSWITCH_BLOCKS = frozenset({BlockType.HE_MULT, BlockType.HE_ROTATE})


def dag_violations(blocks: BlockTable | DiGraph,
                   params: CkksParameters | None = None,
                   require_keyswitch_meta: bool = False) -> list[str]:
    """All structural problems found in a block table (or graph)."""
    table = blocks if isinstance(blocks, BlockTable) \
        else BlockTable(blocks)
    problems: list[str] = []
    try:
        table.topological_order()
    except ValueError:
        problems.append("graph contains a cycle")
    max_level = params.max_level if params is not None else None
    ids, rows, missing = table.ids, table.rows, table.missing
    for row, ((block_type, level, _, key, _), shape) in enumerate(
            zip(rows, table.keyswitch)):
        if row in missing:
            problems.append(f"{ids[row]}: missing BlockInstance")
            continue
        if level < 0:
            problems.append(f"{ids[row]}: negative level {level}")
        if max_level is not None and level > max_level:
            problems.append(f"{ids[row]}: level {level} > max {max_level}")
        if block_type is BlockType.HE_ROTATE and not key:
            problems.append(f"{ids[row]}: HERotate without key metadata")
        if require_keyswitch_meta and shape is None \
                and block_type in KEYSWITCH_BLOCKS:
            problems.append(f"{ids[row]}: key-switch block without "
                            "keyswitch metadata")
    # (source, target, problem), found target by target.
    edges: list[tuple[int, int, str]] = []
    refresh, mod_raise = table.refresh, BlockType.MOD_RAISE
    for v, pairs in enumerate(table.preds):
        v_type, v_level = rows[v][0], rows[v][1]
        rises = v_type is not mod_raise and not refresh[v] \
            and v not in missing
        for u, edge_bytes in pairs:
            if edge_bytes <= 0.0:
                edges.append((u, v, f"{ids[u]} -> {ids[v]}: "
                              "non-positive edge bytes"))
            if rises and v_level > rows[u][1] and u not in missing:
                edges.append((u, v, f"{ids[u]} -> {ids[v]}: level rises "
                              f"{rows[u][1]} -> {v_level} without "
                              "ModRaise/refresh"))
    if edges:
        position = {(u, v): k
                    for u, children in enumerate(table.successors())
                    for k, v in enumerate(children)}
        edges.sort(key=lambda edge: (edge[0], position[edge[:2]]))
        problems += [problem for _, _, problem in edges]
    return problems


def assert_workload_dag(blocks: BlockTable | DiGraph,
                        params: CkksParameters | None = None,
                        require_keyswitch_meta: bool = False) -> None:
    """Raise ``AssertionError`` listing every violated invariant."""
    problems = dag_violations(
        blocks, params=params,
        require_keyswitch_meta=require_keyswitch_meta)
    if problems:
        raise AssertionError(_summary(problems, "DAG"))


class TraceValidationError(ValueError):
    """A recorded trace violates a structural invariant."""


def validate_trace(trace: OpTrace) -> OpTrace:
    """Check trace-level invariants; returns the trace unchanged.

    Raises :class:`TraceValidationError` listing every violation.
    """
    problems: list[str] = []
    max_level = trace.params.max_level
    for position, op in enumerate(trace.ops):
        where = f"op {op.op_id} ({op.kind.value})"
        malformed = structural_problems(op, position)
        problems += [f"{where}: {problem}" for problem in malformed]
        for label, level in (("level", op.level),
                             ("out_level", op.out_level)):
            if not 0 <= level <= max_level:
                problems.append(f"{where}: {label} {level} outside "
                                f"[0, {max_level}]")
        spec = OPS[op.kind]
        if switches_key(spec, op.meta) and not op.key:
            problems.append(f"{where}: key-switch op without a key id")
        if malformed:
            continue    # the level rule may read what is missing
        expected = expected_out_level(spec, op.level, op.meta, max_level)
        if expected is not None and op.out_level != expected:
            step = "one level" if expected == op.level - 1 \
                else f"level {expected}"
            problems.append(f"{where}: {op.kind.value} {op.level} -> "
                            f"{op.out_level} is not {step}")
    if problems:
        raise TraceValidationError(_summary(problems, "trace"))
    return trace


def _summary(problems: list[str], what: str) -> str:
    more = f"\n  ... {len(problems) - 20} more" if len(problems) > 20 \
        else ""
    return (f"{len(problems)} {what} invariant violations:\n  "
            + "\n  ".join(problems[:20]) + more)
