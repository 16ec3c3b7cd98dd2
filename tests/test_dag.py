"""``repro.dag`` held to networkx, the container it replaced.

Block ids, LABS tie-breaks and every simulated cycle depend on the
*orders* a graph iterates in, so the dict-backed
``DiGraph`` must reproduce networkx's node order, edge order and
``topological_sort`` order, not just its answers.  networkx is the
oracle here and nowhere under ``src/``.
"""

import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import dag
from repro.gme.labs import WeightedGraph
from repro.trace import lowering
from repro.workloads import compile_workload


def _same_surface(ours: dag.DiGraph, theirs: nx.DiGraph) -> None:
    assert list(ours) == list(ours.nodes) == list(theirs.nodes)
    assert len(ours) == len(ours.nodes) == len(theirs.nodes)
    assert dict(ours.nodes(data=True)) == dict(theirs.nodes(data=True))
    assert list(ours.nodes.items()) == list(theirs.nodes.items())
    assert list(ours.nodes(data="w", default=-1)) \
        == list(theirs.nodes(data="w", default=-1))
    assert list(ours.edges) == list(ours.edges()) == list(theirs.edges)
    assert list(ours.edges(data=True)) == list(theirs.edges(data=True))
    assert list(ours.edges(data="bytes", default=0.5)) \
        == list(theirs.edges(data="bytes", default=0.5))
    assert ours.number_of_nodes() == theirs.number_of_nodes()
    assert ours.number_of_edges() == len(ours.edges) \
        == theirs.number_of_edges()
    assert list(ours.in_degree()) == list(theirs.in_degree())
    assert list(ours.out_degree()) == list(theirs.out_degree())
    for view in ("adj", "succ", "pred"):
        mine, other = getattr(ours, view), getattr(theirs, view)
        assert [(n, list(nbrs.items())) for n, nbrs in mine.items()] \
            == [(n, list(nbrs.items())) for n, nbrs in other.items()]
    for node in theirs.nodes:
        assert node in ours
        assert ours.nodes[node] == theirs.nodes[node]
        assert list(ours.successors(node)) == list(theirs.successors(node))
        assert list(ours.predecessors(node)) \
            == list(theirs.predecessors(node))
        assert ours.in_degree(node) == theirs.in_degree(node)
        assert ours.out_degree(node) == theirs.out_degree(node)
    for u, v in theirs.edges:
        assert ours.has_edge(u, v) and (u, v) in ours.edges
        assert ours.has_edge(v, u) == theirs.has_edge(v, u)
        assert ours.edges[u, v] == theirs.edges[u, v]
    assert ours.is_directed() and ours.graph == theirs.graph


def _same_orders(ours: dag.DiGraph, theirs: nx.DiGraph) -> None:
    acyclic = nx.is_directed_acyclic_graph(theirs)
    assert dag.is_directed_acyclic_graph(ours) == acyclic
    if acyclic:
        assert list(dag.topological_sort(ours)) \
            == list(nx.topological_sort(theirs))
    else:
        with pytest.raises(ValueError, match="cycle"):
            list(dag.topological_sort(ours))
    # What LABS reads off either container is the same two dicts, in
    # the same order (a directed graph read as undirected).
    mine, other = WeightedGraph.of(ours), WeightedGraph.of(theirs)
    assert list(mine.nodes.items()) == list(other.nodes.items())
    assert [(n, list(nbrs.items())) for n, nbrs in mine.adj.items()] \
        == [(n, list(nbrs.items())) for n, nbrs in other.adj.items()]
    assert list(mine.edges()) == list(other.edges())


@pytest.mark.parametrize("name", ["boot", "helr", "resnet"])
def test_the_catalog_dags_iterate_as_networkx_would(name, monkeypatch):
    """The same lowering, once into each container: construction order
    is what sets the adjacency orders."""
    plan = compile_workload(name)
    ours = lowering.lower_expanded_trace(plan.trace)
    assert type(ours) is type(plan.graph) is dag.DiGraph
    monkeypatch.setattr(lowering, "DiGraph", nx.DiGraph)
    theirs = lowering.lower_expanded_trace(plan.trace)
    assert isinstance(theirs, nx.DiGraph)
    _same_surface(ours, theirs)
    _same_orders(ours, theirs)
    # The functions agree on either container.
    assert list(dag.topological_sort(theirs)) \
        == list(nx.topological_sort(theirs))


@st.composite
def builds(draw, acyclic: bool):
    """A sequence of ``add_node`` / ``add_edge`` calls, attribute
    updates and repeated edges included."""
    count = draw(st.integers(1, 12))
    labels = draw(st.permutations(range(count)))
    attrs = st.dictionaries(st.sampled_from(["w", "bytes", "weight"]),
                            st.integers(0, 9), max_size=2)
    ops = []
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 3)) == 0:
            ops.append(("node", labels[draw(st.integers(0, count - 1))],
                        draw(attrs)))
            continue
        i, j = draw(st.integers(0, count - 1)), draw(st.integers(0, count - 1))
        if acyclic:
            if i == j:
                continue
            i, j = min(i, j), max(i, j)    # a hidden topological order
        ops.append(("edge", labels[i], labels[j], draw(attrs)))
    return ops


def _build(ops):
    ours, theirs = dag.DiGraph(name="g"), nx.DiGraph(name="g")
    for graph in (ours, theirs):
        for op in ops:
            if op[0] == "node":
                graph.add_node(op[1], **op[2])
            else:
                graph.add_edge(op[1], op[2], **op[3])
    return ours, theirs


@settings(deadline=None, max_examples=200)
@given(builds(acyclic=True))
def test_generated_dags_iterate_and_sort_as_networkx_would(ops):
    ours, theirs = _build(ops)
    _same_surface(ours, theirs)
    _same_orders(ours, theirs)


@settings(deadline=None, max_examples=100)
@given(builds(acyclic=False))
def test_generated_digraphs_agree_cycles_included(ops):
    ours, theirs = _build(ops)
    _same_surface(ours, theirs)
    _same_orders(ours, theirs)


def test_nothing_under_src_imports_networkx():
    """``import networkx`` was 15 MB of every lane's resident set."""
    code = ("import sys, repro.serve, repro.engine, repro.experiments, "
            "repro.artifact, repro.analysis; "
            "sys.exit('networkx' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
