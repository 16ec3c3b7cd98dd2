"""LABS over a block table's rows against the graph walk it replaced.

:func:`oracle_coarsen` is ``MultilevelPartitioner._coarsen`` as it was
while LABS read a graph: super-nodes named ``("m", k)`` tuples, a dict
matching and the edges found through ``WeightedGraph.edges()``.
:func:`oracle_affinity_order` is ``LabsScheduler._affinity_topological_
order`` as it was: the ready blocks one list, scanned at every pick,
each pick's successors sorted by node id.  ``LabsScheduler.order`` over
a table must give the order and parts they give the table's graph,
mapped through the node ids, on every lowering-shaped DAG — repeated
inputs, shared keys and several sources included — and
``WeightedGraph.of_successors`` the weights ``WeightedGraph.of`` reads
from that graph, node and neighbour orders included.
"""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import CkksParameters
from repro.gme import ConcentratedTorus, LabsScheduler
from repro.gme.labs import (MultilevelPartitioner, PartitionResult,
                            WeightedGraph, _cut)
from repro.gpusim.config import mi100
from repro.workloads import compile_workload
from table_oracles import lowered_tables


def oracle_coarsen(partitioner, graph):
    """Heavy-edge matching coarsening over named nodes."""
    rng = np.random.default_rng(partitioner.seed)
    levels = []
    current = graph
    while len(current.nodes) > partitioner.coarsen_floor:
        matching = {}
        nodes = list(current.nodes)
        rng.shuffle(nodes)
        for node in nodes:
            if node in matching:
                continue
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
        weights = {}
        for node, super_node in matching.items():
            weights[super_node] = weights.get(super_node, 0.0) \
                + current.nodes[node]
        adj = {s: {} for s in weights}
        for u, v, w in current.edges():
            su, sv = matching[u], matching[v]
            if su != sv:
                adj[su][sv] = adj[sv][su] = adj[su].get(sv, 0.0) + w
        if len(weights) >= len(current.nodes):
            break
        levels.append((current, matching))
        current = WeightedGraph(weights, adj)
    return levels, current


def oracle_partition(partitioner, graph):
    """``partitioner.partition(graph)`` over the graph's own node names,
    coarsened by :func:`oracle_coarsen`."""
    work = WeightedGraph.of(graph)
    if not work.nodes:
        return PartitionResult({}, partitioner.num_parts, 0.0,
                               [0.0] * partitioner.num_parts)
    levels, coarsest = oracle_coarsen(partitioner, work)
    parts, outside = partitioner._refine(
        coarsest, partitioner._initial_partition(coarsest), coarsest.nodes)
    for finer, matching in reversed(levels):
        parts, outside = partitioner._refine(
            finer, {node: parts[matching[node]] for node in finer.nodes},
            [node for node in finer.nodes if outside[matching[node]]])
    weights = [0.0] * partitioner.num_parts
    for node, part in parts.items():
        weights[part] += work.nodes[node]
    return PartitionResult(parts=parts, num_parts=partitioner.num_parts,
                           phi=_cut(work.edges(), parts),
                           part_weights=weights)


def oracle_affinity_order(graph, parts, key_of=None):
    """Kahn's algorithm; ready blocks from the active part go first, and
    among those, blocks sharing the active switching key."""
    indeg = dict(graph.in_degree())
    keys = {n: key_of(n) for n in graph.nodes} if key_of is not None \
        else {}
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order = []
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


def oracle_order(scheduler, graph, key_of=None):
    """``scheduler.order`` as it read a graph: its order and parts."""
    num_parts = min(scheduler.torus.num_routers,
                    max(1, len(graph.nodes) // 4))
    result = oracle_partition(
        MultilevelPartitioner(num_parts, seed=scheduler.seed), graph)
    return oracle_affinity_order(graph, result.parts, key_of), result


def _block_key(graph):
    return lambda node: graph.nodes[node]["block"].metadata.get("key")


def _same_order(scheduler, table):
    """The table's order and parts are the oracle's on its graph."""
    graph, ids = table.graph, table.ids
    order, result = scheduler.order(table)
    expected, oracle = oracle_order(scheduler, graph, _block_key(graph))
    assert [ids[row] for row in order] == expected
    assert [(ids[row], part) for row, part in result.parts.items()] \
        == list(oracle.parts.items())
    assert (result.phi, result.part_weights) \
        == (oracle.phi, oracle.part_weights)


TORI = {"mi100": ConcentratedTorus(mi100()), "default": ConcentratedTorus()}


@settings(max_examples=120, deadline=None)
@given(lowered_tables(), st.sampled_from(sorted(TORI)),
       st.integers(0, 2**32 - 1))
def test_the_rows_order_as_the_graph_walk_did(table, torus, seed):
    _same_order(LabsScheduler(TORI[torus], seed=seed), table)


@settings(max_examples=120, deadline=None)
@given(lowered_tables())
def test_the_rows_weigh_as_the_graph_does(table):
    weights = WeightedGraph.of_successors(table.successors())
    named = WeightedGraph.of(table.graph)
    ids = table.ids
    assert [(ids[row], weight) for row, weight in weights.nodes.items()] \
        == list(named.nodes.items())
    assert [(ids[u], [(ids[v], w) for v, w in nbrs.items()])
            for u, nbrs in weights.adj.items()] \
        == [(u, list(nbrs.items())) for u, nbrs in named.adj.items()]


@pytest.mark.parametrize("workload", ["boot", "helr", "resnet"])
def test_the_catalog_orders_as_the_graph_walk_did(workload):
    table = compile_workload(workload, CkksParameters.paper()).table
    _same_order(LabsScheduler(TORI["mi100"], seed=2023), table)


# -- named graphs: the schedule's path ----------------------------------------

@st.composite
def weighted_dags(draw):
    """A DAG of 1-80 named nodes, its size drawn and its nodes, edges,
    weights and keys from a drawn seed: weights from a few small values
    (ties), edges sometimes drawn twice, keys from a few ids or none."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 80))
    names = [f"n{i}" for i in range(size)]
    rng.shuffle(names)
    graph = nx.DiGraph()
    for name in names:
        graph.add_node(name, weight=rng.choice([1.0, 2.0, 3.0]))
    for _ in range(rng.randint(0, 3 * size)):
        i, j = rng.randrange(size), rng.randrange(size)
        if i != j:
            graph.add_edge(names[min(i, j)], names[max(i, j)],
                           weight=rng.choice([1.0, 2.0, 3.0]))
    keys = {name: rng.choice([None, "k0", "k1"]) for name in names}
    return graph, keys


@settings(max_examples=50, deadline=None)
@given(weighted_dags(), st.integers(0, 2**32 - 1))
def test_a_named_graph_schedules_as_the_graph_walk_did(case, seed):
    """``schedule`` reads a graph's rows the same way: its order, parts
    and Phi are the oracle's over the graph's own names."""
    graph, keys = case
    scheduler = LabsScheduler(TORI["mi100"], seed=seed)
    schedule = scheduler.schedule(graph, key_of=keys.get)
    order, oracle = oracle_order(scheduler, graph, keys.get)
    assert schedule.block_order == order
    assert list(schedule.parts.items()) == list(oracle.parts.items())
    assert schedule.phi == oracle.phi
