"""LABS: Locality-Aware Block Scheduler (paper section 3.3).

Two cooperating compile-time algorithms:

1. **Graph Partitioning Problem (GPP)** -- partition the FHE block graph
   G(V, E) into balanced parts minimizing the cut cost
   ``Phi = sum of cut-edge weights`` using the multilevel mesh-partitioning
   scheme of Walshaw and Cross [85]: heavy-edge-matching coarsening, greedy
   initial partitioning, and Kernighan--Lin boundary refinement at every
   uncoarsening level.  The refinement touches the boundary only: a sweep
   weighs moves for the nodes with a neighbour in another part (no other
   node can move), and a level counts those neighbours only for the
   nodes whose coarse node was on the coarser level's boundary.

2. **Architecture-aware mapping** -- map parts onto the cNoC torus routers
   with simulated annealing, minimizing
   ``Gamma = sum |(v,w)| * dist(pi(v), pi(w))`` where dist is the torus hop
   count (the paper's non-uniform communication cost).

The resulting schedule orders blocks so producers and consumers run close
together in time and space, which is what lets ciphertexts stay resident in
the global LDS across blocks.

:class:`LabsScheduler` keeps the two apart.  :meth:`LabsScheduler.order`
(partition, then an affinity topological order) is the half BlockSim
consumes, and it reads a plan's block table
(:class:`~repro.blocksim.BlockTable`): the simulator issues blocks
serially and models residency by *when* a block runs, so its cycles
depend on the parts and never on the routers they land on.
:meth:`LabsScheduler.place` (annealing, Gamma) is for whoever wants the
placement — :meth:`LabsScheduler.schedule` composes both into a
:class:`LabsSchedule` for a block DAG given as a graph — and is not on
the simulate path.

Both algorithms read node and edge weights only (a graph's ``weight``
attributes, default 1.0; a table's are all 1.0), so they run on a
:class:`WeightedGraph` — two plain dicts — rather than on a copy of the
block graph.  The partitioner works on rows ``0..n-1``: a graph's nodes
are numbered in node order, coarsening numbers its super-nodes as it
makes them, and the parts go back to the node names at the end.  The
affinity order works on rows too: the nodes' ids break ties, through
one sort of the rows by id.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.dag import DiGraph

from .cnoc import ConcentratedTorus

if TYPE_CHECKING:
    from repro.blocksim.table import BlockTable

#: One edge as the cost functions read it: (u, v, weight).
Edge = tuple[Any, Any, float]


class WeightedGraph:
    """The part of a graph LABS reads: node weights and symmetric edge
    weights (default 1.0), as plain dicts.

    Built from a graph in the node and neighbour insertion order of
    networkx's ``graph.to_undirected()`` without its deep copy of every
    node and edge payload, so heavy-edge ties, the shuffle stream and the
    refinement sweep see the order they always saw.
    """

    def __init__(self, nodes: dict[Any, float],
                 adj: dict[Any, dict[Any, float]]):
        self.nodes = nodes
        self.adj = adj

    @classmethod
    def of(cls, graph: DiGraph) -> WeightedGraph:
        """The weights of a :class:`~repro.dag.DiGraph` — or of anything
        with its ``nodes(data=True)`` / ``adj`` / ``is_directed()``
        surface, a networkx graph of either kind included — a directed
        one read as undirected."""
        nodes = {node: data.get("weight", 1.0)
                 for node, data in graph.nodes(data=True)}
        if not graph.is_directed():
            return cls(nodes, {
                node: {nbr: data.get("weight", 1.0)
                       for nbr, data in nbrs.items()}
                for node, nbrs in graph.adj.items()})
        adj: dict[Any, dict[Any, float]] = {node: {} for node in nodes}
        for u, nbrs in graph.adj.items():
            for v, data in nbrs.items():
                # A reciprocal pair merges into one edge whose later
                # attributes win, as ``to_undirected()`` merges it.
                weight = data.get("weight", adj[u].get(v, 1.0))
                adj[u][v] = adj[v][u] = weight
        return cls(nodes, adj)

    @classmethod
    def of_successors(cls, successors: list[list[int]]) -> WeightedGraph:
        """The unit weights of a DAG on rows ``0..n-1`` given each row's
        successors: what :meth:`of` reads from the same DAG as a graph
        (for a table whose rows are in topological order, each row's
        neighbours are its predecessors, ascending, then its
        successors, ascending)."""
        adj: dict[Any, dict[Any, float]] = {row: {} for row
                                            in range(len(successors))}
        for u, children in enumerate(successors):
            for v in children:
                adj[u][v] = adj[v][u] = 1.0
        return cls(dict.fromkeys(adj, 1.0), adj)

    def indexed(self) -> WeightedGraph:
        """The same graph on rows ``0..n-1`` in node order (itself, if
        its nodes are those rows already)."""
        index = {node: row for row, node in enumerate(self.nodes)}
        if all(node == row and type(node) is int
               for node, row in index.items()):
            return self
        return WeightedGraph(
            dict(enumerate(self.nodes.values())),
            {row: {index[nbr]: weight
                   for nbr, weight in self.adj[node].items()}
             for node, row in index.items()})

    def edges(self) -> Iterator[Edge]:
        """Every edge once, in ``networkx.Graph.edges()`` order."""
        seen: set[Any] = set()
        for u, nbrs in self.adj.items():
            for v, weight in nbrs.items():
                if v not in seen:
                    yield u, v, weight
            seen.add(u)


def _cut(edges: Iterable[Edge], parts: dict[Any, int]) -> float:
    total = 0.0
    for u, v, weight in edges:
        if parts[u] != parts[v]:
            total += weight
    return total


def cut_cost(graph: DiGraph, parts: dict[Any, int]) -> float:
    """Phi: total weight of edges crossing partition boundaries."""
    return _cut(graph.edges(data="weight", default=1.0), parts)


def mapping_cost(graph: DiGraph, parts: dict[Any, int],
                 assignment: dict[int, int],
                 torus: ConcentratedTorus) -> float:
    """Gamma: cut weight scaled by torus hop distance of the mapping."""
    hops = torus.hops
    total = 0.0
    for u, v, weight in graph.edges(data="weight", default=1.0):
        pu, pv = parts[u], parts[v]
        if pu != pv:
            total += weight * hops[assignment[pu]][assignment[pv]]
    return total


@dataclass
class PartitionResult:
    """Outcome of the GPP stage."""

    parts: dict[Any, int]
    num_parts: int
    phi: float
    part_weights: list[float] = field(default_factory=list)

    @property
    def imbalance(self) -> float:
        """max part weight / average part weight - 1."""
        if not self.part_weights:
            return 0.0
        avg = sum(self.part_weights) / len(self.part_weights)
        return max(self.part_weights) / avg - 1.0 if avg else 0.0


#: One level of the multilevel hierarchy: its graph (on rows
#: ``0..n-1``) and each row's super-node, a row of the next (coarser)
#: level.
_Level = tuple[WeightedGraph, list[int]]


class MultilevelPartitioner:
    """Walshaw--Cross style multilevel k-way partitioner."""

    def __init__(self, num_parts: int, balance_tolerance: float = 0.15,
                 seed: int = 2023, coarsen_floor: int | None = None):
        if num_parts < 1:
            raise ValueError("need at least one part")
        self.num_parts = num_parts
        self.balance_tolerance = balance_tolerance
        self.seed = seed
        self.coarsen_floor = coarsen_floor or max(4 * num_parts, 24)

    # -- public API ----------------------------------------------------------

    def partition(self, graph: DiGraph | WeightedGraph) -> PartitionResult:
        """Partition a weighted graph (a directed one by its undirected
        weights) into num_parts parts."""
        named = graph if isinstance(graph, WeightedGraph) \
            else WeightedGraph.of(graph)
        if not named.nodes:
            return PartitionResult({}, self.num_parts, 0.0,
                                   [0.0] * self.num_parts)
        work = named.indexed()
        levels, coarsest = self._coarsen(work)
        parts, outside = self._refine(coarsest,
                                      self._initial_partition(coarsest),
                                      coarsest.nodes)
        # Project back up through the levels, refining at each.  A node
        # whose coarse node has no neighbour in another part has none
        # either: its neighbours share its coarse node or are in the
        # coarse node's neighbours.
        for finer, matching in reversed(levels):
            parts, outside = self._refine(
                finer, {node: parts[matching[node]] for node in finer.nodes},
                [node for node in finer.nodes if outside[matching[node]]])
        weights = [0.0] * self.num_parts
        for node, part in parts.items():
            weights[part] += work.nodes[node]
        phi = _cut(work.edges(), parts)
        if work is not named:
            names = list(named.nodes)
            parts = {names[row]: part for row, part in parts.items()}
        return PartitionResult(parts=parts, num_parts=self.num_parts,
                               phi=phi, part_weights=weights)

    # -- multilevel machinery -----------------------------------------------

    def _coarsen(self, graph: WeightedGraph
                 ) -> tuple[list[_Level], WeightedGraph]:
        """Heavy-edge matching coarsening of a graph on rows ``0..n-1``:
        the levels that were matched, finest first, and the coarsest
        graph they end in.  Super-nodes are rows too, numbered as they
        are made."""
        rng = np.random.default_rng(self.seed)
        levels: list[_Level] = []
        current = graph
        while len(current.nodes) > self.coarsen_floor:
            adj, size = current.adj, len(current.nodes)
            matching = [-1] * size
            made = 0
            nodes = list(range(size))
            rng.shuffle(nodes)
            for node in nodes:
                if matching[node] >= 0:
                    continue
                # Heaviest incident edge to an unmatched neighbour.
                best, best_w = -1, -1.0
                for nbr, w in adj[node].items():
                    if matching[nbr] >= 0 or nbr == node:
                        continue
                    if w > best_w:
                        best, best_w = nbr, w
                matching[node] = made
                if best >= 0:
                    matching[best] = made
                made += 1
            if made >= size:
                break   # no progress (e.g. fully disconnected)
            weights = [0.0] * made
            for node, node_w in current.nodes.items():
                weights[matching[node]] += node_w
            # Adjacency inserted in edge order (``edges()``: each edge
            # from its earlier row), as ``add_edge`` would.
            coarse: dict[Any, dict[Any, float]] = {s: {} for s
                                                   in range(made)}
            for u, nbrs in adj.items():
                su = matching[u]
                for v, w in nbrs.items():
                    if v > u:
                        sv = matching[v]
                        if su != sv:
                            coarse[su][sv] = coarse[sv][su] = \
                                coarse[su].get(sv, 0.0) + w
            levels.append((current, matching))
            current = WeightedGraph(dict(enumerate(weights)), coarse)
        return levels, current

    def _initial_partition(self, graph: WeightedGraph) -> dict[Any, int]:
        """Greedy balanced growth from high-weight seed nodes."""
        target = sum(graph.nodes.values()) / self.num_parts
        parts: dict[Any, int] = {}
        loads = [0.0] * self.num_parts
        for node in sorted(graph.nodes, key=lambda n: -graph.nodes[n]):
            # Prefer the part with the most attraction (edge weight to it),
            # penalized by load.
            scores = [0.0] * self.num_parts
            for nbr, w in graph.adj[node].items():
                if nbr in parts:
                    scores[parts[nbr]] += w
            best, best_score = 0, -math.inf
            for p in range(self.num_parts):
                if loads[p] > target * (1 + self.balance_tolerance):
                    continue
                score = scores[p] - loads[p] / max(target, 1e-9)
                if score > best_score:
                    best, best_score = p, score
            parts[node] = best
            loads[best] += graph.nodes[node]
        return parts

    def _refine(self, graph: WeightedGraph, parts: dict[Any, int],
                frontier: Iterable[Any],
                ) -> tuple[dict[Any, int], dict[Any, int]]:
        """Kernighan--Lin boundary refinement (greedy passes): the
        refined parts, and each node's count of neighbours in another
        part under them.

        Only a boundary node can move: one with no neighbour in another
        part has no attraction but its own part's.  So each node keeps
        that count, a move updates the counts of the node and its
        neighbours, and a sweep builds attractions for boundary nodes
        only.  The sweep still visits the nodes in order, so the moves
        and tie-breaks are those of a sweep over every node.  Counts
        start at 0 but for the ``frontier`` nodes: the caller knows the
        rest have no neighbour in another part.
        """
        parts = dict(parts)
        adj = graph.adj
        target = sum(graph.nodes.values()) / self.num_parts
        limit = target * (1 + self.balance_tolerance)
        loads = [0.0] * self.num_parts
        for node, part in parts.items():
            loads[part] += graph.nodes[node]
        outside = dict.fromkeys(graph.nodes, 0)
        for node in frontier:
            here = parts[node]
            outside[node] = sum(1 for nbr in adj[node] if parts[nbr] != here)
        for _ in range(3):                      # bounded number of passes
            improved = False
            for node, node_w in graph.nodes.items():
                if not outside[node]:
                    continue
                here = parts[node]
                # Gain of moving node to each neighbouring part.
                attraction = _attraction(adj[node], parts)
                internal = attraction.get(here, 0.0)
                best_part, best_gain = here, 0.0
                for part, weight in attraction.items():
                    if part == here:
                        continue
                    if loads[part] + node_w > limit:
                        continue
                    gain = weight - internal
                    if gain > best_gain:
                        best_part, best_gain = part, gain
                if best_part != here:
                    parts[node] = best_part
                    loads[here] -= node_w
                    loads[best_part] += node_w
                    improved = True
                    # The node's own count is recounted, not adjusted: a
                    # self-loop would adjust it as a neighbour's.
                    away = 0
                    for nbr in adj[node]:
                        there = parts[nbr]
                        if there == here:
                            outside[nbr] += 1
                        elif there == best_part:
                            outside[nbr] -= 1
                        if there != best_part:
                            away += 1
                    outside[node] = away
            if not improved:
                break
        return parts, outside


def _attraction(nbrs: dict[Any, float],
                parts: dict[Any, int]) -> dict[int, float]:
    """Edge weight from a node to each part its neighbours are in, in
    neighbour order."""
    attraction: dict[int, float] = {}
    for nbr, w in nbrs.items():
        part = parts[nbr]
        attraction[part] = attraction.get(part, 0.0) + w
    return attraction


class SimulatedAnnealingMapper:
    """Architecture-aware mapping of parts onto torus routers (sec 3.3)."""

    def __init__(self, torus: ConcentratedTorus, seed: int = 2023,
                 iterations: int = 4000, initial_temperature: float = 2.0):
        self.torus = torus
        self.seed = seed
        self.iterations = iterations
        self.initial_temperature = initial_temperature

    def map_parts(self, graph: DiGraph,
                  parts: dict[Any, int]) -> dict[int, int]:
        """Return part -> router assignment minimizing Gamma."""
        num_parts = max(parts.values()) + 1 if parts else 0
        routers = self.torus.num_routers
        if num_parts > routers:
            raise ValueError(f"{num_parts} parts > {routers} routers")
        rng = np.random.default_rng(self.seed)
        # Aggregate inter-part traffic once.
        traffic: dict[tuple[int, int], float] = {}
        for u, v, weight in WeightedGraph.of(graph).edges():
            pu, pv = parts[u], parts[v]
            if pu == pv:
                continue
            key = (min(pu, pv), max(pu, pv))
            traffic[key] = traffic.get(key, 0.0) + weight
        assignment = {p: p for p in range(num_parts)}
        hops = self.torus.hops

        def gamma_of(asn: dict[int, int]) -> float:
            return sum(w * hops[asn[a]][asn[b]]
                       for (a, b), w in traffic.items())

        current = gamma_of(assignment)
        best_asn, best_cost = dict(assignment), current
        temperature = self.initial_temperature
        cooling = (0.01 / max(temperature, 0.01)) ** (1.0 /
                                                      max(1,
                                                          self.iterations))
        free_routers = [r for r in range(routers) if r >= num_parts]
        for _ in range(self.iterations):
            a = int(rng.integers(0, num_parts))
            # Swap with another part's router or move to a free router.
            if free_routers and rng.random() < 0.3:
                r_new = free_routers[int(rng.integers(0,
                                                      len(free_routers)))]
                old = assignment[a]
                assignment[a] = r_new
                candidate = gamma_of(assignment)
                if self._accept(candidate - current, temperature, rng):
                    current = candidate
                    free_routers.remove(r_new)
                    free_routers.append(old)
                else:
                    assignment[a] = old
            else:
                b = int(rng.integers(0, num_parts))
                if a == b:
                    continue
                assignment[a], assignment[b] = \
                    assignment[b], assignment[a]
                candidate = gamma_of(assignment)
                if self._accept(candidate - current, temperature, rng):
                    current = candidate
                else:
                    assignment[a], assignment[b] = \
                        assignment[b], assignment[a]
            if current < best_cost:
                best_cost, best_asn = current, dict(assignment)
            temperature *= cooling
        return best_asn

    @staticmethod
    def _accept(delta: float, temperature: float,
                rng: np.random.Generator) -> bool:
        if delta <= 0:
            return True
        if temperature <= 0:
            return False
        return rng.random() < math.exp(-delta / temperature)


@dataclass
class LabsSchedule:
    """Compile-time schedule LABS hands to the dispatcher."""

    block_order: list[Any]
    block_router: dict[Any, int]
    parts: dict[Any, int]
    phi: float
    gamma: float
    phi_unpartitioned: float


class LabsScheduler:
    """End-to-end LABS: partition, order, and map the block graph."""

    def __init__(self, torus: ConcentratedTorus | None = None,
                 seed: int = 2023):
        self.torus = torus or ConcentratedTorus()
        self.seed = seed

    def order(self, table: BlockTable) -> tuple[list[int], PartitionResult]:
        """The ordering half, over a block table's rows: partition the
        DAG, then order it.

        Blocks are ordered topologically with partition affinity as the
        primary tiebreak and shared switching keys (each row's key) as
        the secondary one, so blocks sharing data or keys run
        back-to-back and their shared state stays live in the global
        LDS.  The order and the parts name rows; the order reads the
        parts only, never the routers they are mapped to.
        """
        successors = table.successors()
        return self._order(WeightedGraph.of_successors(successors),
                           successors, [row[3] for row in table.rows],
                           table.ids)

    def _order(self, work: WeightedGraph, successors: list[list[int]],
               keys: Sequence[Any], ids: Sequence[Any],
               ) -> tuple[list[int], PartitionResult]:
        """Partition ``work`` (a DAG's weights, its nodes in row order)
        and order its rows (:func:`_affinity_order`)."""
        num_parts = min(self.torus.num_routers, max(1, len(ids) // 4))
        result = MultilevelPartitioner(num_parts, seed=self.seed) \
            .partition(work)
        parts = result.parts
        part_of = [parts[node] for node in work.nodes]
        return _affinity_order(successors, part_of, keys, ids), result

    def place(self, block_graph: DiGraph,
              parts: dict[Any, int]) -> tuple[dict[Any, int], float]:
        """The mapping half: anneal the parts onto the torus; returns
        each block's router and the mapping's Gamma."""
        assignment = SimulatedAnnealingMapper(self.torus, seed=self.seed) \
            .map_parts(block_graph, parts)
        block_router = {node: assignment[parts[node]]
                        for node in block_graph.nodes}
        return block_router, mapping_cost(block_graph, parts, assignment,
                                          self.torus)

    def schedule(self, block_graph: DiGraph,
                 key_of: Callable[[Any], Any] | None = None,
                 ) -> LabsSchedule:
        """Produce a locality-aware schedule for a block DAG given as a
        graph, its nodes grouped on ``key_of(node)``: the
        :meth:`order` of its rows, named by node, and its
        :meth:`place`-ment."""
        names = list(block_graph.nodes)
        index = {node: row for row, node in enumerate(names)}
        successors = [[index[child] for child in block_graph.succ[node]]
                      for node in names]
        keys = [key_of(node) for node in names] if key_of is not None \
            else [None] * len(names)
        rows, result = self._order(WeightedGraph.of(block_graph),
                                   successors, keys, names)
        block_router, gamma = self.place(block_graph, result.parts)
        # Reference cost: every block on its own part (total edge weight).
        phi_all = sum(weight for _, _, weight
                      in block_graph.edges(data="weight", default=1.0))
        return LabsSchedule(block_order=[names[row] for row in rows],
                            block_router=block_router, parts=result.parts,
                            phi=result.phi, gamma=gamma,
                            phi_unpartitioned=phi_all)


def _affinity_order(successors: list[list[int]], parts: list[int],
                    keys: Sequence[Any], ids: Sequence[Any]) -> list[int]:
    """Kahn's algorithm over rows; ready blocks from the active part go
    first, and among those, blocks sharing the active switching key.

    The ready blocks form one queue in the order they became ready: the
    sources by id, then each pick's successors by id.  A pick is the
    first of them in the active part with the active key, else the first
    in the active part, else the first of all, whose part becomes the
    active one.  Each of those firsts heads a queue of its own (every
    ready row, the part's, the part and key's), so a pick drops the
    already-picked rows off a head instead of scanning the ready blocks.
    """
    size = len(ids)
    # Successors presorted by id: one sort of the rows, and each row's
    # successors appended in that order.
    by_id = sorted(range(size), key=ids.__getitem__)
    preds: list[list[int]] = [[] for _ in range(size)]
    for u, children in enumerate(successors):
        for v in children:
            preds[v].append(u)
    released: list[list[int]] = [[] for _ in range(size)]
    for v in by_id:
        for u in preds[v]:
            released[u].append(v)
    waiting = [len(rows) for rows in preds]

    picked = [False] * size
    everyone: deque[int] = deque()
    by_part: dict[int, deque[int]] = {}
    by_key: dict[tuple[int, Any], deque[int]] = {}

    def ready(row: int) -> None:
        everyone.append(row)
        part, key = parts[row], keys[row]
        queue = by_part.get(part)
        if queue is None:
            queue = by_part[part] = deque()
        queue.append(row)
        if key is not None:
            queue = by_key.get((part, key))
            if queue is None:
                queue = by_key[part, key] = deque()
            queue.append(row)

    def head(queue: deque[int] | None) -> int:
        """The first unpicked row of ``queue``; -1 for none."""
        if queue is None:
            return -1
        while queue and picked[queue[0]]:
            queue.popleft()
        return queue[0] if queue else -1

    for row in by_id:
        if not waiting[row]:
            ready(row)
    order: list[int] = []
    current_part, current_key = -1, None
    while True:
        pick = -1
        if current_key is not None:
            pick = head(by_key.get((current_part, current_key)))
        if pick < 0:
            pick = head(by_part.get(current_part))
        if pick < 0:
            pick = head(everyone)
            if pick < 0:
                break
            current_part = parts[pick]
        picked[pick] = True
        order.append(pick)
        key = keys[pick]
        if key is not None:
            current_key = key
        for child in released[pick]:
            waiting[child] -= 1
            if not waiting[child]:
                ready(child)
    if len(order) != size:
        raise ValueError("block graph contains a cycle")
    return order
