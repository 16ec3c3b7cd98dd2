"""Structural invariants of a recorded trace and of its lowered DAG.

The engine (:mod:`repro.engine`) compiles a program as record ->
:func:`validate_trace` -> lower -> :func:`assert_workload_dag`; nothing
rewrites a trace in between.  :func:`validate_trace` holds the op stream
to its rows of the op table (:mod:`repro.trace.ops`): dense, ordered
ids, inputs that reference earlier ops, levels in range, every op with
the input count, key and output level its row prescribes.

:func:`dag_violations` returns the list of structural problems of a
workload DAG (empty = healthy), and :func:`assert_workload_dag` raises
with the full list.  DAG invariants:

* the graph is a DAG and every node carries a ``BlockInstance``;
* every edge carries positive ``bytes``;
* block levels are within the parameter range;
* levels are monotone non-increasing along edges, except into
  ``ModRaise`` blocks (the bootstrap entry lift) and blocks marked
  ``metadata["refresh"]`` (a schematic level reset / elided bootstrap);
* every ``HERotate`` block names its switching key
  (``metadata["key"]``), which LABS grouping and the key-residency
  window depend on;
* optionally (lowered graphs), every key-switch block — rotations *and*
  HEMult relinearizations — carries ``metadata["keyswitch"]`` with the
  hybrid-decomposition shape.
"""

from __future__ import annotations

from repro.blocksim.blocks import BlockInstance, BlockType
from repro.dag import DiGraph, is_directed_acyclic_graph
from repro.fhe.params import CkksParameters

from .ir import OpTrace
from .ops import (OPS, expected_out_level, structural_problems,
                  switches_key)

#: Block types that perform a key switch.
KEYSWITCH_BLOCKS = frozenset({BlockType.HE_MULT, BlockType.HE_ROTATE})


def dag_violations(graph: DiGraph,
                   params: CkksParameters | None = None,
                   require_keyswitch_meta: bool = False) -> list[str]:
    """All structural problems found in a workload DAG."""
    problems: list[str] = []
    if not is_directed_acyclic_graph(graph):
        problems.append("graph contains a cycle")
    max_level = params.max_level if params is not None else None
    for node, data in graph.nodes(data=True):
        block = data.get("block")
        if not isinstance(block, BlockInstance):
            problems.append(f"{node}: missing BlockInstance")
            continue
        if block.level < 0:
            problems.append(f"{node}: negative level {block.level}")
        if max_level is not None and block.level > max_level:
            problems.append(
                f"{node}: level {block.level} > max {max_level}")
        if block.block_type is BlockType.HE_ROTATE \
                and not block.metadata.get("key"):
            problems.append(f"{node}: HERotate without key metadata")
        if require_keyswitch_meta \
                and block.block_type in KEYSWITCH_BLOCKS \
                and "keyswitch" not in block.metadata:
            problems.append(f"{node}: key-switch block without "
                            "keyswitch metadata")
    for u, v, data in graph.edges(data=True):
        if data.get("bytes", 0.0) <= 0.0:
            problems.append(f"{u} -> {v}: non-positive edge bytes")
        u_block = graph.nodes[u].get("block")
        v_block = graph.nodes[v].get("block")
        if not isinstance(u_block, BlockInstance) \
                or not isinstance(v_block, BlockInstance):
            continue
        if v_block.level > u_block.level \
                and v_block.block_type is not BlockType.MOD_RAISE \
                and not v_block.metadata.get("refresh"):
            problems.append(
                f"{u} -> {v}: level rises {u_block.level} -> "
                f"{v_block.level} without ModRaise/refresh")
    return problems


def assert_workload_dag(graph: DiGraph,
                        params: CkksParameters | None = None,
                        require_keyswitch_meta: bool = False) -> None:
    """Raise ``AssertionError`` listing every violated invariant."""
    problems = dag_violations(
        graph, params=params,
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
