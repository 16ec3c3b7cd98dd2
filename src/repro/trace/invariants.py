"""Structural invariants every BlockSim workload DAG must satisfy.

Checked on every compiled or loaded plan and by the lowering tests:
:func:`dag_violations` returns the list of structural problems (empty =
healthy), and :func:`assert_workload_dag` raises with the full list.

Invariants:

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
        summary = "\n  ".join(problems[:20])
        more = f"\n  ... {len(problems) - 20} more" \
            if len(problems) > 20 else ""
        raise AssertionError(
            f"{len(problems)} DAG invariant violations:\n  "
            f"{summary}{more}")
