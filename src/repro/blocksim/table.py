"""The block table: a block DAG as integer rows.

Lowering (:func:`repro.trace.lower_trace`) writes one per plan; the DAG
invariants (:func:`repro.trace.dag_violations`) check it, LABS
(:meth:`repro.gme.LabsScheduler.order`) orders it and every BlockSim run
(:meth:`repro.blocksim.BlockGraphSimulator.run`) walks it.  A
:class:`~repro.dag.DiGraph` of the same DAG is made only for a caller
that reads :attr:`BlockTable.graph`.
"""

from __future__ import annotations

from typing import Any, cast

from repro.dag import DiGraph

from .blocks import BlockInstance, BlockType

#: A block as a run reads it: type, level, repeat, the switching key
#: LABS groups it on (``metadata["key"]``) and the trace op it lowers
#: (``metadata["op_id"]``).
BlockRow = tuple[BlockType, int, int, Any, Any]

#: The row of a node that carries no ``BlockInstance`` (a hand-built
#: graph only): :func:`~repro.trace.dag_violations` reports it, and no
#: run can price it.
_NO_BLOCK = cast(BlockRow, (None, 0, 1, None, None))


class BlockTable:
    """A block DAG as integer rows: what lowering writes, the invariants
    check, LABS orders and every run walks.

    Row ``i`` is one block: :attr:`ids` ``[i]`` is its node id,
    :attr:`rows` ``[i]`` its :data:`BlockRow`, :attr:`preds` ``[i]`` its
    predecessors as ``(row, edge bytes)`` pairs (each once, in the order
    their edges were added), and :attr:`keyswitch` ``[i]`` /
    :attr:`refresh` ``[i]`` the two facts the invariants read: the
    key-switch shape (``None``: the block switches no key) and whether
    the block consumes a schematically refreshed value.

    :func:`~repro.trace.lower_trace` fills an empty table in one walk of
    the trace, producers before consumers, and a plan keeps it
    (:attr:`repro.engine.ExecutablePlan.table`).  :attr:`graph` is the
    same DAG as a :class:`~repro.dag.DiGraph`, made at its first read
    for a caller that wants one; ``BlockTable(graph)`` reads a hand-built
    graph (networkx's included) the other way, and keeps it as
    :attr:`graph`.
    """

    __slots__ = ("ids", "rows", "preds", "keyswitch", "refresh",
                 "missing", "_graph", "_successors", "_topological")

    def __init__(self, graph: Any = None) -> None:
        self.ids: list[Any] = []
        self.rows: list[BlockRow] = []
        self.preds: list[tuple[tuple[int, float], ...]] = []
        self.keyswitch: list[dict[str, Any] | None] = []
        self.refresh: list[bool] = []
        #: Rows of nodes without a ``BlockInstance`` (:data:`_NO_BLOCK`).
        self.missing: set[int] = set()
        self._graph: DiGraph | None = graph
        self._successors: list[list[int]] | None = None
        self._topological: list[int] | None = None
        if graph is None:
            return
        index = {node: row for row, node in enumerate(graph.nodes)}
        pred = graph.pred
        for row, (node, attrs) in enumerate(graph.nodes(data=True)):
            block = attrs.get("block")
            self.ids.append(node)
            self.preds.append(tuple(
                (index[u], edge.get("bytes", 0.0))
                for u, edge in pred[node].items()))
            if not isinstance(block, BlockInstance):
                self.missing.add(row)
                self.rows.append(_NO_BLOCK)
                self.keyswitch.append(None)
                self.refresh.append(False)
                continue
            meta = block.metadata
            self.rows.append((block.block_type, block.level, block.repeat,
                              meta.get("key"), meta.get("op_id")))
            self.keyswitch.append(meta.get("keyswitch"))
            self.refresh.append(bool(meta.get("refresh")))
        self._successors = [[index[v] for v in graph.succ[node]]
                            for node in graph.nodes]

    def successors(self) -> list[list[int]]:
        """Each row's successors, in the order their edges were added
        (for a lowered table: ascending)."""
        if self._successors is None:
            successors: list[list[int]] = [[] for _ in self.rows]
            for row, pairs in enumerate(self.preds):
                for pred, _ in pairs:
                    successors[pred].append(row)
            self._successors = successors
        return self._successors

    def topological_order(self) -> list[int]:
        """The rows with every edge pointing forward, in
        :func:`repro.dag.topological_sort`'s order (Kahn's algorithm a
        generation at a time: the sources in row order, then the rows
        they released, as their last predecessor released them);
        ``ValueError`` on a cycle.  Made once per table: the baseline's
        issue order and the invariants' acyclicity check."""
        if self._topological is None:
            waiting = [len(pairs) for pairs in self.preds]
            order = [row for row, count in enumerate(waiting) if not count]
            successors = self.successors()
            for row in order:           # grows as rows are released
                for child in successors[row]:
                    waiting[child] -= 1
                    if not waiting[child]:
                        order.append(child)
            if len(order) != len(self.rows):
                raise ValueError("graph contains a cycle")
            self._topological = order
        return self._topological

    @property
    def graph(self) -> DiGraph:
        """The table as a :class:`~repro.dag.DiGraph` of
        :class:`BlockInstance` nodes, ``bytes`` on every edge — for a
        lowered table, the graph lowering used to build — made at the
        first read."""
        if self._graph is None:
            graph = DiGraph()
            ids = self.ids
            for node, (block_type, level, repeat, key, op_id), pairs, \
                    shape, refreshed in zip(ids, self.rows, self.preds,
                                            self.keyswitch, self.refresh):
                metadata: dict[str, Any] = {"op_id": op_id}
                if shape is not None:
                    metadata["keyswitch"] = dict(shape)
                if key is not None:
                    metadata["key"] = key
                if refreshed:
                    metadata["refresh"] = True
                graph.add_node(node, block=BlockInstance(
                    block_id=node, block_type=block_type, level=level,
                    repeat=repeat, metadata=metadata))
                for pred, edge_bytes in pairs:
                    graph.add_edge(ids[pred], node, bytes=edge_bytes)
            self._graph = graph
        return self._graph
