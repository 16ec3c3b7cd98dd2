"""A directed graph on plain dicts: the block DAG's container.

Lowering, the simulator, LABS, the linter and the ``.rpa`` codec need a
node table, an edge table with attributes, both adjacency directions and
a topological order: one ``dict`` of nodes and two of neighbours.  This
module is that, under the names of the slice of ``networkx.DiGraph`` the
repo uses, so code written against the surface — ``WeightedGraph.of``,
the simulator — also takes a networkx graph where a caller has one,
while nothing under ``src/`` imports networkx (some 340 modules and
15 MB in every process, for one container and three functions).

Orders are the contract, not an accident: nodes iterate in insertion
order, edges in (source insertion, neighbour insertion) order, and
:func:`topological_sort` yields generation by generation exactly as
networkx does — block ids, LABS tie-breaks, artifact bytes and every
simulated cycle count depend on them
(``tests/test_dag.py`` holds all three to networkx itself).
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, Mapping
from typing import Any, Literal, overload

#: Any hashable.
Node = Any
Attrs = dict[str, Any]


class NodeView(Mapping[Node, Attrs]):
    """``graph.nodes``: a read-only mapping node -> attribute dict, also
    callable as ``nodes(data=...)``."""

    __slots__ = ("_nodes",)

    def __init__(self, nodes: dict[Node, Attrs]):
        self._nodes = nodes

    def __getitem__(self, node: Node) -> Attrs:
        return self._nodes[node]

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    @overload
    def __call__(self, data: Literal[False] = False) -> NodeView: ...

    @overload
    def __call__(self, data: Literal[True]) -> ItemsView[Node, Attrs]: ...

    @overload
    def __call__(self, data: str, default: Any = None
                 ) -> list[tuple[Node, Any]]: ...

    def __call__(self, data: bool | str = False, default: Any = None
                 ) -> NodeView | ItemsView[Node, Attrs] \
            | list[tuple[Node, Any]]:
        """The nodes; ``(node, attrs)`` pairs for ``data=True``;
        ``(node, attrs.get(data, default))`` for an attribute name."""
        if data is False:
            return self
        if data is True:
            return self._nodes.items()
        return [(node, attrs.get(data, default))
                for node, attrs in self._nodes.items()]


class EdgeView:
    """``graph.edges``: iterates ``(u, v)``, indexes ``[u, v]`` to the
    attribute dict, and is callable as ``edges(data=..., default=...)``."""

    __slots__ = ("_succ",)

    def __init__(self, succ: dict[Node, dict[Node, Attrs]]):
        self._succ = succ

    def __iter__(self) -> Iterator[tuple[Node, Node]]:
        for u, nbrs in self._succ.items():
            for v in nbrs:
                yield u, v

    def __len__(self) -> int:
        return sum(len(nbrs) for nbrs in self._succ.values())

    def __getitem__(self, edge: tuple[Node, Node]) -> Attrs:
        u, v = edge
        return self._succ[u][v]

    def __contains__(self, edge: object) -> bool:
        if not isinstance(edge, tuple) or len(edge) != 2:
            return False
        u, v = edge
        return u in self._succ and v in self._succ[u]

    @overload
    def __call__(self, data: Literal[False] = False
                 ) -> Iterator[tuple[Node, Node]]: ...

    @overload
    def __call__(self, data: Literal[True]
                 ) -> Iterator[tuple[Node, Node, Attrs]]: ...

    @overload
    def __call__(self, data: str, default: Any = None
                 ) -> Iterator[tuple[Node, Node, Any]]: ...

    def __call__(self, data: bool | str = False, default: Any = None
                 ) -> Iterator[tuple[Any, ...]]:
        """``(u, v)`` pairs; ``(u, v, attrs)`` for ``data=True``;
        ``(u, v, attrs.get(data, default))`` for an attribute name."""
        if data is False:
            return iter(self)
        return ((u, v, attrs if data is True else attrs.get(data, default))
                for u, nbrs in self._succ.items()
                for v, attrs in nbrs.items())


class DiGraph:
    """Directed graph with attribute dicts on nodes and edges.

    ``nodes`` / ``edges`` are the views above; ``succ`` (alias ``adj``)
    and ``pred`` map node -> neighbour -> edge attributes and, like the
    views, are for reading: build through :meth:`add_node` /
    :meth:`add_edge`.
    """

    def __init__(self, **attr: Any):
        #: Graph-level attributes.
        self.graph: Attrs = attr
        self._node: dict[Node, Attrs] = {}
        self._succ: dict[Node, dict[Node, Attrs]] = {}
        self._pred: dict[Node, dict[Node, Attrs]] = {}
        self.nodes = NodeView(self._node)
        self.edges = EdgeView(self._succ)
        self.succ: Mapping[Node, Mapping[Node, Attrs]] = self._succ
        self.adj = self.succ
        self.pred: Mapping[Node, Mapping[Node, Attrs]] = self._pred

    def add_node(self, node: Node, **attr: Any) -> None:
        """Add ``node``, or update the attributes of one already there."""
        if node not in self._node:
            self._node[node] = {}
            self._succ[node] = {}
            self._pred[node] = {}
        self._node[node].update(attr)

    def add_edge(self, u: Node, v: Node, **attr: Any) -> None:
        """Add the edge ``u -> v`` (and either endpoint, if new), or
        update the attributes of one already there."""
        self.add_node(u)
        self.add_node(v)
        attrs = self._succ[u].get(v, {})
        attrs.update(attr)
        self._succ[u][v] = self._pred[v][u] = attrs

    def successors(self, node: Node) -> Iterator[Node]:
        return iter(self._succ[node])

    def predecessors(self, node: Node) -> Iterator[Node]:
        return iter(self._pred[node])

    @overload
    def in_degree(self) -> list[tuple[Node, int]]: ...

    @overload
    def in_degree(self, node: Node) -> int: ...

    def in_degree(self, node: Node = None) -> int | list[tuple[Node, int]]:
        """Of one node, or ``(node, degree)`` for all in node order."""
        return _degree(self._pred, node)

    @overload
    def out_degree(self) -> list[tuple[Node, int]]: ...

    @overload
    def out_degree(self, node: Node) -> int: ...

    def out_degree(self, node: Node = None) -> int | list[tuple[Node, int]]:
        return _degree(self._succ, node)

    def number_of_nodes(self) -> int:
        return len(self._node)

    def number_of_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: Node, v: Node) -> bool:
        return (u, v) in self.edges

    def is_directed(self) -> bool:
        return True

    def __iter__(self) -> Iterator[Node]:
        return iter(self._node)

    def __len__(self) -> int:
        return len(self._node)

    def __contains__(self, node: object) -> bool:
        return node in self._node


def _degree(nbrs: dict[Node, dict[Node, Attrs]], node: Node
            ) -> int | list[tuple[Node, int]]:
    if node is not None:
        return len(nbrs[node])
    return [(n, len(adjacent)) for n, adjacent in nbrs.items()]


def topological_sort(graph: DiGraph) -> Iterator[Node]:
    """Nodes with every edge pointing forward, in
    ``networkx.topological_sort``'s own order: Kahn's algorithm a
    generation at a time — the sources in node order, then the nodes
    they released, in the order their last predecessor released them.
    ``ValueError`` on a cycle, once every reachable node is out."""
    waiting = {node: len(preds) for node, preds in graph.pred.items()
               if preds}
    ready = [node for node, preds in graph.pred.items() if not preds]
    while ready:
        generation, ready = ready, []
        for node in generation:
            yield node
            for child in graph.succ[node]:
                waiting[child] -= 1
                if not waiting[child]:
                    ready.append(child)
                    del waiting[child]
    if waiting:
        raise ValueError("graph contains a cycle")


def is_directed_acyclic_graph(graph: DiGraph) -> bool:
    if not graph.is_directed():
        return False
    try:
        for _ in topological_sort(graph):
            pass
    except ValueError:
        return False
    return True
