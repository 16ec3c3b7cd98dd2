"""Tests for the block-graph simulator and workload DAGs."""

import re

import networkx as nx
import pytest

from repro.blocksim import (BlockGraphSimulator, BlockInstance, BlockTable,
                            BlockType, make_block_node)
from repro.blocksim import calibration as cal
from repro.dag import is_directed_acyclic_graph
from repro.gme.features import BASELINE, FeatureSet, GME_FULL
from repro.trace import OpKind
from repro.workloads import compile_workload


def _chain(n=4, block=BlockType.HE_MULT, level=20):
    return [BlockInstance(block_id=f"b{i}", block_type=block, level=level)
            for i in range(n)]


class TestSimulator:
    def test_chain_accumulates(self):
        sim = BlockGraphSimulator(BASELINE)
        metrics = sim.run_blocks(_chain(3))
        assert metrics.blocks == 3
        assert metrics.cycles > 0
        assert metrics.dram_bytes > 0

    def test_gme_beats_baseline(self):
        chain = _chain(5)
        base = BlockGraphSimulator(BASELINE).run_blocks(chain)
        chain = _chain(5)
        gme = BlockGraphSimulator(GME_FULL).run_blocks(chain)
        assert gme.cycles < base.cycles / 5

    def test_residency_hits_in_chain(self):
        """Under cNoC, chained blocks consume the producer's output."""
        sim = BlockGraphSimulator(FeatureSet(cnoc=True, labs=True))
        metrics = sim.run_blocks(_chain(4))
        assert metrics.resident_hits >= 3

    def test_no_residency_without_cnoc(self):
        sim = BlockGraphSimulator(BASELINE)
        metrics = sim.run_blocks(_chain(4))
        assert metrics.resident_hits == 0

    def test_labs_order_is_topological(self):
        graph = compile_workload("boot").graph
        sim = BlockGraphSimulator(GME_FULL)
        nodes = list(graph.nodes)
        order = [nodes[row] for row in sim._order(BlockTable(graph))]
        position = {b: i for i, b in enumerate(order)}
        for u, v in graph.edges:
            assert position[u] < position[v]

    def test_repeat_scales_linearly(self):
        g1 = nx.DiGraph()
        make_block_node(g1, BlockInstance("a", BlockType.HE_MULT, 20,
                                          repeat=1))
        g2 = nx.DiGraph()
        make_block_node(g2, BlockInstance("a", BlockType.HE_MULT, 20,
                                          repeat=4))
        sim = BlockGraphSimulator(BASELINE)
        m1 = sim.run(g1)
        m4 = sim.run(g2)
        assert m4.dram_bytes == pytest.approx(4 * m1.dram_bytes)

    def test_metrics_sane(self):
        metrics = BlockGraphSimulator(GME_FULL).run_blocks(_chain(6))
        assert 0 <= metrics.cu_utilization <= 1
        assert 0 <= metrics.dram_bw_utilization <= 1
        assert 0 <= metrics.l1_utilization <= 1
        assert metrics.cpi > 0
        assert metrics.time_ms() > 0

    def test_key_residency_window_is_sweepable(self):
        """The LABS key window is a FeatureSet knob: closing it (0)
        disables key grouping and can only slow the run down."""
        graph = compile_workload("boot").graph
        default = BlockGraphSimulator(GME_FULL).run(graph, "boot")
        closed = BlockGraphSimulator(
            GME_FULL.with_key_residency_window(0)).run(graph, "boot")
        assert closed.cycles >= default.cycles
        assert GME_FULL.with_key_residency_window(12).name.endswith(
            "KRW12")
        assert GME_FULL.key_residency_window == 6   # default unchanged

    def test_key_residency_window_validated(self):
        with pytest.raises(ValueError):
            GME_FULL.with_key_residency_window(-1)


class TestWorkloadGraphs:
    @pytest.mark.parametrize("name", ["boot", "helr", "resnet"])
    def test_graphs_are_dags(self, name):
        graph = compile_workload(name).graph
        assert is_directed_acyclic_graph(graph)
        assert graph.number_of_nodes() > 50
        for node, data in graph.nodes(data=True):
            assert "block" in data, node
            block = data["block"]
            assert 0 <= block.level
        for _, _, data in graph.edges(data=True):
            assert data.get("bytes", 0) > 0

    def test_bootstrap_levels_descend(self):
        graph = compile_workload("boot").graph
        (entry,) = [n for n in graph if graph.in_degree(n) == 0]
        (exit_id,) = [n for n in graph if graph.out_degree(n) == 0]
        assert graph.nodes[entry]["block"].block_type \
            is BlockType.MOD_RAISE
        top = graph.nodes[entry]["block"].level
        bottom = graph.nodes[exit_id]["block"].level
        assert top > bottom

    def test_bootstrap_has_rotation_keys(self):
        graph = compile_workload("boot").graph
        keys = {graph.nodes[n]["block"].metadata.get("key")
                for n in graph.nodes} - {None}
        assert len(keys) > 3

    def test_resnet_contains_bootstraps(self):
        """One ModRaise per embedded bootstrap, and the blocks lowered
        from ops recorded inside ``.../boot`` regions are the bulk."""
        plan = compile_workload("resnet")
        raises = [op for op in plan.trace.ops
                  if op.kind is OpKind.MOD_RAISE]
        assert len(raises) == cal.RESNET_BOOTSTRAPS
        region_of = {op.op_id: op.region for op in plan.trace.ops}
        regions = [region_of[data["block"].metadata["op_id"]]
                   for _, data in plan.graph.nodes(data=True)]
        boot_blocks = [r for r in regions if "boot" in r.split("/")]
        assert len(boot_blocks) > 100

    def test_helr_iteration_count(self):
        trace = compile_workload("helr").trace
        iterations = {op.region for op in trace.ops
                      if re.fullmatch(r"helr/it\d+", op.region)}
        assert len(iterations) == cal.HELR_ITERATIONS == 30


def test_a_table_rows_a_graph_whose_producers_come_later():
    """A block table indexes every node before it reads an edge, so a
    graph whose nodes were inserted out of topological order runs."""
    graph = nx.DiGraph()
    make_block_node(graph, BlockInstance("late", BlockType.HE_ADD, 10))
    make_block_node(graph, BlockInstance("early", BlockType.HE_MULT, 10))
    graph.add_edge("early", "late", bytes=1.0)
    table = BlockTable(graph)
    assert table.preds == [((1, 1.0),), ()]
    assert BlockGraphSimulator(GME_FULL).run(graph).blocks == 2
