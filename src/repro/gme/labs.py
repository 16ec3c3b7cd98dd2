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
consumes: the simulator issues blocks serially and models residency by
*when* a block runs, so its cycles depend on the parts and never on the
routers they land on.  :meth:`LabsScheduler.place` (annealing, Gamma) is
for whoever wants the placement — :meth:`LabsScheduler.schedule` composes
both into a :class:`LabsSchedule` — and is not on the simulate path.

Both algorithms read a graph's node and edge ``weight`` attributes only
(default 1.0), so they run on a :class:`WeightedGraph` — two plain dicts —
rather than on a copy of the block graph.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.dag import DiGraph

from .cnoc import ConcentratedTorus

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


#: One level of the multilevel hierarchy: its graph and the map of each
#: of its nodes to the representative in the next (coarser) level.
_Level = tuple[WeightedGraph, dict[Any, Any]]


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

    def partition(self, graph: DiGraph) -> PartitionResult:
        """Partition a weighted graph (a directed one by its undirected
        weights) into num_parts parts."""
        work = WeightedGraph.of(graph)
        if not work.nodes:
            return PartitionResult({}, self.num_parts, 0.0,
                                   [0.0] * self.num_parts)
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
        return PartitionResult(parts=parts, num_parts=self.num_parts,
                               phi=_cut(work.edges(), parts),
                               part_weights=weights)

    # -- multilevel machinery -----------------------------------------------

    def _coarsen(self, graph: WeightedGraph
                 ) -> tuple[list[_Level], WeightedGraph]:
        """Heavy-edge matching coarsening: the levels that were matched,
        finest first, and the coarsest graph they end in."""
        rng = np.random.default_rng(self.seed)
        levels: list[_Level] = []
        current = graph
        while len(current.nodes) > self.coarsen_floor:
            matching: dict[Any, Any] = {}
            nodes = list(current.nodes)
            rng.shuffle(nodes)
            for node in nodes:
                if node in matching:
                    continue
                # Heaviest incident edge to an unmatched neighbour.
                best, best_w = None, -1.0
                for nbr, w in current.adj[node].items():
                    if nbr in matching or nbr == node:
                        continue
                    if w > best_w:
                        best, best_w = nbr, w
                super_node = ("m", len(matching))
                matching[node] = super_node
                if best is not None:
                    matching[best] = super_node
            weights: dict[Any, float] = {}
            for node, super_node in matching.items():
                weights[super_node] = weights.get(super_node, 0.0) \
                    + current.nodes[node]
            # Adjacency inserted in edge order, as ``add_edge`` would.
            adj: dict[Any, dict[Any, float]] = {s: {} for s in weights}
            for u, v, w in current.edges():
                su, sv = matching[u], matching[v]
                if su != sv:
                    adj[su][sv] = adj[sv][su] = adj[su].get(sv, 0.0) + w
            if len(weights) >= len(current.nodes):
                break   # no progress (e.g. fully disconnected)
            levels.append((current, matching))
            current = WeightedGraph(weights, adj)
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

    def order(self, block_graph: DiGraph,
              key_of: Callable[[Any], Any] | None = None,
              ) -> tuple[list[Any], PartitionResult]:
        """The ordering half: partition the block DAG, then order it.

        Blocks are ordered topologically with partition affinity as the
        primary tiebreak and shared switching keys (``key_of(node)``) as
        the secondary one, so blocks sharing data or keys run back-to-back
        and their shared state stays live in the global LDS.  The order
        reads the parts only, never the routers they are mapped to.
        """
        num_parts = min(self.torus.num_routers,
                        max(1, len(block_graph.nodes) // 4))
        result = MultilevelPartitioner(num_parts, seed=self.seed) \
            .partition(block_graph)
        return self._affinity_topological_order(
            block_graph, result.parts, key_of), result

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
        """Produce a locality-aware schedule for a block DAG: its
        :meth:`order` and its :meth:`place`-ment."""
        block_order, result = self.order(block_graph, key_of)
        block_router, gamma = self.place(block_graph, result.parts)
        # Reference cost: every block on its own part (total edge weight).
        phi_all = sum(weight for _, _, weight
                      in block_graph.edges(data="weight", default=1.0))
        return LabsSchedule(block_order=block_order,
                            block_router=block_router, parts=result.parts,
                            phi=result.phi, gamma=gamma,
                            phi_unpartitioned=phi_all)

    @staticmethod
    def _affinity_topological_order(
            graph: DiGraph, parts: dict[Any, int],
            key_of: Callable[[Any], Any] | None = None) -> list[Any]:
        """Kahn's algorithm; ready blocks from the active part go first,
        and among those, blocks sharing the active switching key."""
        indeg = dict(graph.in_degree())
        keys = {n: key_of(n) for n in graph.nodes} \
            if key_of is not None else {}
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order: list[Any] = []
        current_part = None
        current_key = None
        while ready:
            pick = None
            if current_key is not None:
                for candidate in ready:
                    if parts.get(candidate) == current_part \
                            and keys[candidate] == current_key:
                        pick = candidate
                        break
            if pick is None:
                for candidate in ready:
                    if parts.get(candidate) == current_part:
                        pick = candidate
                        break
            if pick is None:
                pick = ready[0]
                current_part = parts.get(pick)
            ready.remove(pick)
            order.append(pick)
            key = keys.get(pick)
            if key is not None:
                current_key = key
            for succ in sorted(graph.successors(pick)):
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != graph.number_of_nodes():
            raise ValueError("block graph contains a cycle")
        return order
