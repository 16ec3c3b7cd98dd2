"""The DAG invariants read a block table: the same problems as the
graph walk they replaced (``table_oracles.graph_dag_violations``).

A lowered plan is checked as the table lowering wrote; a hand-built
graph is read into a table first.  Either way each problem names its
node ids, and the list comes in the order the graph walk found it: the
cycle, each node's, then each edge's by source and by the order the
source's edges were added.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocksim import BlockInstance, BlockTable, BlockType
from repro.fhe import CkksParameters
from repro.trace import (SymbolicEvaluator, TracingEvaluator,
                         dag_violations, lower_trace)
from repro.workloads import compile_workload
from table_oracles import graph_dag_violations, lowered_tables

TEST = CkksParameters.test()


def _first(graph, block_type):
    return next(node for node, block in graph.nodes(data="block")
                if block.block_type is block_type)


def _set_level(graph, node, level):
    graph.nodes[node]["block"].level = level


def _rising_edge(graph):
    """An edge into a block that is not a ModRaise nor refreshed."""
    return next((u, v) for u, v in graph.edges
                if graph.nodes[v]["block"].block_type
                is not BlockType.MOD_RAISE
                and not graph.nodes[v]["block"].metadata.get("refresh"))


#: name -> an edit that breaks a healthy lowered graph.
DEFECTS = {
    "rotation-without-key": lambda g: g.nodes[_first(
        g, BlockType.HE_ROTATE)]["block"].metadata.pop("key"),
    "key-switch-without-shape": lambda g: g.nodes[_first(
        g, BlockType.HE_MULT)]["block"].metadata.pop("keyswitch"),
    "negative-level": lambda g: _set_level(g, list(g)[1], -1),
    "level-past-max": lambda g: _set_level(g, list(g)[-1], 99),
    "level-rises": lambda g: _set_level(
        g, _rising_edge(g)[1], g.nodes[_rising_edge(g)[0]]["block"].level
        + 1),
    "zero-bytes": lambda g: g.edges[next(iter(g.edges))].update(bytes=0.0),
    "no-bytes": lambda g: g.edges[next(iter(g.edges))].pop("bytes"),
    "cycle": lambda g: g.add_edge(list(g)[-1], list(g)[0], bytes=1.0),
    "missing-block": lambda g: g.add_edge(list(g)[0], "ghost", bytes=1.0),
    "block-is-not-an-instance": lambda g: g.nodes[list(g)[1]].update(
        block="HEAdd"),
}


def _toy_graphs():
    """The programs of ``test_lowering.py``, lowered at toy parameters."""
    params = CkksParameters.toy()
    graphs = {}
    sym = TracingEvaluator(SymbolicEvaluator(params))
    prod = sym.he_square(sym.fresh(level=4), rescale=False)
    sym.rotate_add(prod, [1, 2, 3])
    sym.he_conjugate(sym.rescale(prod))
    graphs["rotation-group"] = sym.trace
    sym = TracingEvaluator(SymbolicEvaluator(params))
    raised = sym.refresh(sym.fresh(level=1), 5)
    sym.he_rotate(sym.he_square(raised, rescale=False), 7)
    graphs["refresh"] = sym.trace
    return graphs


GRAPHS = {**{name: lambda trace=trace: lower_trace(trace).graph
             for name, trace in _toy_graphs().items()},
          **{name: lambda name=name: lower_trace(compile_workload(
              name, TEST).trace).graph for name in ("boot", "helr")}}


def _same_problems(blocks, params=TEST):
    graph = blocks.graph if isinstance(blocks, BlockTable) else blocks
    for strict in (False, True):
        expected = graph_dag_violations(graph, params, strict)
        assert dag_violations(blocks, params, strict) == expected
    return graph_dag_violations(graph, params, True)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_a_healthy_lowered_table_has_no_problem(name):
    graph = GRAPHS[name]()
    table = BlockTable(graph)
    assert _same_problems(table) == _same_problems(graph) == []


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_a_defective_graph_gets_the_graph_walks_problems(name, defect):
    graph = GRAPHS[name]()
    DEFECTS[defect](graph)
    assert _same_problems(graph)


def test_edge_problems_come_in_the_order_the_edges_were_added():
    """A hand-built graph whose edges were not added target by target."""
    graph = nx.DiGraph()
    for node, level in (("a", 3), ("c", 5), ("b", 4)):
        graph.add_node(node, block=BlockInstance(node, BlockType.HE_ADD,
                                                 level))
    graph.add_edge("a", "c", bytes=0.0)
    graph.add_edge("b", "a")
    graph.add_edge("a", "b", bytes=-1.0)
    problems = _same_problems(graph)
    assert problems == [
        "graph contains a cycle",
        "a -> c: non-positive edge bytes",
        "a -> c: level rises 3 -> 5 without ModRaise/refresh",
        "a -> b: non-positive edge bytes",
        "a -> b: level rises 3 -> 4 without ModRaise/refresh",
        "b -> a: non-positive edge bytes"]


@settings(max_examples=150, deadline=None)
@given(lowered_tables(max_rows=40, defects=True),
       st.sampled_from([None, TEST]))
def test_a_random_table_gets_the_graph_walks_problems(table, params):
    _same_problems(table, params)
