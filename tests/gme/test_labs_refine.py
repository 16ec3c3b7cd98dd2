"""LABS's boundary-only refinement against the full-scan sweep it replaced.

:func:`full_scan_refine` is ``MultilevelPartitioner._refine`` as it was
before the sweep skipped interior nodes: every pass builds an attraction
for every node.  The two must agree on every graph, ties included —
the skipped nodes are exactly those whose only attraction is their own
part — and the count twin pins how few attractions the boundary sweep
builds on resnet.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import CkksParameters
from repro.gme import ConcentratedTorus, LabsScheduler, labs
from repro.gme.labs import MultilevelPartitioner, WeightedGraph
from repro.gpusim.config import mi100
from repro.workloads import compile_workload

CATALOG = ("boot", "helr", "resnet")

#: Attractions the boundary sweep builds in resnet's LABS partition at
#: paper parameters, summed over levels and passes.  The full-scan sweep
#: built one per node per pass: 23 334 (:func:`full_scan_builds`).
RESNET_ATTRACTIONS = 822
RESNET_FULL_SCAN = 23_334


def full_scan_refine(partitioner, graph, parts, builds=None):
    """The refinement sweep over every node, pass after pass (the
    oracle); ``builds`` (a one-item list) counts its attractions."""
    parts = dict(parts)
    target = sum(graph.nodes.values()) / partitioner.num_parts
    limit = target * (1 + partitioner.balance_tolerance)
    loads = [0.0] * partitioner.num_parts
    for node, part in parts.items():
        loads[part] += graph.nodes[node]
    for _ in range(3):
        improved = False
        for node, node_w in graph.nodes.items():
            here = parts[node]
            attraction = {}
            for nbr, w in graph.adj[node].items():
                part = parts[nbr]
                attraction[part] = attraction.get(part, 0.0) + w
            if builds is not None:
                builds[0] += 1
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
        if not improved:
            break
    return parts


def outside_counts(graph, parts):
    """Each node's neighbours in another part, counted from scratch."""
    return {node: sum(1 for nbr in nbrs if parts[nbr] != parts[node])
            for node, nbrs in graph.adj.items()}


def oracle_partition(partitioner, graph, builds=None):
    """``partitioner.partition(graph)`` with the full-scan sweep at every
    level (its frontier ignored)."""
    def refine(self, work, parts, frontier):
        refined = full_scan_refine(self, work, parts, builds)
        return refined, outside_counts(work, refined)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MultilevelPartitioner, "_refine", refine)
        return partitioner.partition(graph)


def _catalog_graph(workload):
    return compile_workload(workload, CkksParameters.paper()).graph


def _labs_partitioner(graph):
    """The partitioner ``LabsScheduler.order`` runs for the simulator."""
    num_parts = min(ConcentratedTorus(mi100()).num_routers,
                    max(1, len(graph.nodes) // 4))
    return MultilevelPartitioner(num_parts, seed=2023)


# -- random weighted graphs, ties included ------------------------------------

@st.composite
def weighted_graphs(draw):
    """A graph of 1-60 nodes whose node and edge weights come from a
    few small values (so gains tie), self-loops allowed, and a
    partition of it into up to 6 parts."""
    size = draw(st.integers(1, 60))
    weights = st.sampled_from([1.0, 2.0, 3.0])
    graph = nx.Graph()
    for i in range(size):
        graph.add_node(f"n{i}", weight=draw(weights))
    names = list(graph.nodes)
    for u, v in draw(st.lists(st.tuples(st.sampled_from(names),
                                        st.sampled_from(names)),
                              max_size=4 * size)):
        graph.add_edge(u, v, weight=draw(weights))
    num_parts = draw(st.integers(1, 6))
    parts = {node: draw(st.integers(0, num_parts - 1)) for node in names}
    tolerance = draw(st.sampled_from([0.0, 0.15, 0.5]))
    return graph, num_parts, parts, tolerance


@settings(max_examples=300, deadline=None)
@given(weighted_graphs())
def test_one_refinement_moves_what_the_full_scan_moves(case):
    graph, num_parts, parts, tolerance = case
    graph = WeightedGraph.of(graph)
    partitioner = MultilevelPartitioner(num_parts,
                                        balance_tolerance=tolerance)
    refined, outside = partitioner._refine(graph, parts, graph.nodes)
    assert refined == full_scan_refine(partitioner, graph, parts)
    assert list(refined) == list(parts)
    assert outside == outside_counts(graph, refined)


@settings(max_examples=100, deadline=None)
@given(weighted_graphs(), st.integers(0, 2**32 - 1))
def test_a_partition_is_the_full_scans(case, seed):
    graph, num_parts, _, tolerance = case
    partitioner = MultilevelPartitioner(num_parts,
                                        balance_tolerance=tolerance,
                                        seed=seed, coarsen_floor=4)
    oracle = oracle_partition(partitioner, graph)
    result = partitioner.partition(graph)
    assert list(result.parts.items()) == list(oracle.parts.items())
    assert result.phi == oracle.phi
    assert result.part_weights == oracle.part_weights


# -- the catalog --------------------------------------------------------------

def test_the_catalog_partitions_are_the_full_scans():
    for workload in CATALOG:
        graph = _catalog_graph(workload)
        partitioner = _labs_partitioner(graph)
        oracle = oracle_partition(partitioner, graph)
        result = partitioner.partition(graph)
        assert list(result.parts.items()) == list(oracle.parts.items()), \
            workload
        assert result.phi == oracle.phi, workload


def full_scan_builds():
    """Attractions the full-scan sweep builds in resnet's partition."""
    graph = _catalog_graph("resnet")
    builds = [0]
    oracle_partition(_labs_partitioner(graph), graph, builds)
    return builds[0]


def test_resnet_builds_an_attraction_for_boundary_nodes_only(monkeypatch):
    table = compile_workload("resnet", CkksParameters.paper()).table
    builds = [0]
    attraction = labs._attraction

    def counting(nbrs, parts):
        builds[0] += 1
        return attraction(nbrs, parts)

    monkeypatch.setattr(labs, "_attraction", counting)
    LabsScheduler(ConcentratedTorus(mi100()), seed=2023).order(table)
    assert builds[0] == RESNET_ATTRACTIONS
    monkeypatch.undo()
    assert full_scan_builds() == RESNET_FULL_SCAN
