"""Lowering tests: trace -> block table (read as its graph), and the full
round trip."""

import numpy as np
import pytest

from repro.blocksim import BlockGraphSimulator, BlockType
from repro.dag import is_directed_acyclic_graph
from repro.fhe import CkksContext
from repro.fhe.params import CkksParameters
from repro.gme.features import GME_FULL, cumulative_configs
from repro.trace import (OpKind, SymbolicEvaluator, TracingEvaluator,
                         assert_workload_dag, dag_violations, lower_trace,
                         schedule)
from repro.workloads import EncryptedConvLayer


@pytest.fixture()
def sym():
    return TracingEvaluator(SymbolicEvaluator(CkksParameters.toy()))


def _blocks(graph):
    return {n: d["block"] for n, d in graph.nodes(data=True)}


class TestLowering:
    def test_plumbing_is_transparent(self, sym):
        ct = sym.fresh(level=5)
        a = sym.he_square(ct, rescale=False)
        dropped = sym.mod_drop(a, 2)
        sym.he_square(dropped, rescale=False)
        graph = lower_trace(sym.trace).graph
        blocks = _blocks(graph)
        assert len(blocks) == 2                 # sources + drops elided
        (first, second) = sorted(blocks, key=lambda n:
                                 blocks[n].level, reverse=True)
        assert graph.has_edge(first, second)    # edge skips the mod_drop
        assert blocks[second].level == 3

    def test_implicit_rescale_expands(self, sym):
        ct = sym.fresh(level=4)
        sym.he_mult(ct, ct, rescale=True)
        graph = lower_trace(sym.trace).graph
        types = [b.block_type for b in _blocks(graph).values()]
        assert sorted(t.value for t in types) \
            == [BlockType.HE_MULT.value, BlockType.HE_RESCALE.value]

    def test_rescale_expansion_feeds_consumers(self, sym):
        ct = sym.fresh(level=4)
        prod = sym.he_mult(ct, ct, rescale=True)
        sym.he_rotate(prod, 1)
        graph = lower_trace(sym.trace).graph
        blocks = _blocks(graph)
        rot = next(n for n, b in blocks.items()
                   if b.block_type is BlockType.HE_ROTATE)
        (pred,) = graph.predecessors(rot)
        assert blocks[pred].block_type is BlockType.HE_RESCALE

    def test_refresh_marks_consumer(self, sym):
        ct = sym.fresh(level=1)
        raised = sym.refresh(ct, 5)
        sym.he_square(raised, rescale=False)
        graph = lower_trace(sym.trace).graph
        (mult,) = [b for b in _blocks(graph).values()
                   if b.block_type is BlockType.HE_MULT]
        assert mult.metadata.get("refresh") is True
        assert dag_violations(graph) == []

    def test_rotation_metadata(self, sym):
        ct = sym.fresh(level=4)
        sym.he_rotate(ct, 7)
        sym.he_conjugate(ct)
        graph = lower_trace(sym.trace).graph
        keys = {b.metadata.get("key")
                for b in _blocks(graph).values()}
        assert keys == {"rot-7", "conj"}
        for block in _blocks(graph).values():
            assert block.metadata["keyswitch"]["dnum"] \
                == sym.params.dnum

    def test_a_rotation_group_is_one_block_per_key_plus_its_sum(self, sym):
        """``rotate_add(ct, [1, 2, 3])``: three rotation blocks off the
        input, each with its own key and the op's ``op_id``, and the adds
        of ``ct + rot_1 + rot_2 + rot_3``."""
        prod = sym.he_square(sym.fresh(level=4), rescale=False)
        sym.rotate_add(prod, [1, 2, 3 + sym.params.num_slots])
        (group,) = [op for op in sym.trace.ops
                    if op.kind is OpKind.ROTATE_ADD]
        assert (group.key, group.meta["rotations"]) \
            == ("rot-1,rot-2,rot-3", [1, 2, 3])
        graph = lower_trace(sym.trace).graph
        assert_workload_dag(graph, params=sym.params,
                            require_keyswitch_meta=True)
        blocks = _blocks(graph)
        rots = [n for n, b in blocks.items()
                if b.block_type is BlockType.HE_ROTATE]
        adds = [n for n, b in blocks.items()
                if b.block_type is BlockType.HE_ADD]
        assert (rots, adds) == (["rot0", "rot1", "rot2"],
                                ["add0", "add1", "add2"])
        assert [blocks[n].metadata["key"] for n in rots] \
            == ["rot-1", "rot-2", "rot-3"]
        assert {blocks[n].metadata["op_id"] for n in rots + adds} \
            == {group.op_id}
        assert all(list(graph.predecessors(n)) == ["mult0"] for n in rots)
        assert [sorted(graph.predecessors(n)) for n in adds] \
            == [["mult0", "rot0"], ["add0", "rot1"], ["add1", "rot2"]]
        assert schedule(sym.trace).key_ids == ("relin", "rot-1", "rot-2",
                                               "rot-3")

    def test_edge_bytes_use_producer_level(self, sym):
        ct = sym.fresh(level=4)
        a = sym.he_square(ct, rescale=False)
        sym.rescale(a)
        graph = lower_trace(sym.trace).graph
        blocks = _blocks(graph)
        mult = next(n for n, b in blocks.items()
                    if b.block_type is BlockType.HE_MULT)
        rescale = next(n for n, b in blocks.items()
                       if b.block_type is BlockType.HE_RESCALE)
        params = sym.params
        expected = 2 * 5 * params.ring_degree * params.prime_bits / 8
        assert graph.edges[mult, rescale]["bytes"] == pytest.approx(expected)

    def test_prefix_and_regions_name_nodes(self, sym):
        """A node is named by its region path alone: lowering adds no
        prefix of its own, so a loaded plan's ids are the compiled ones."""
        with sym.region("stage0"):
            sym.he_rotate(sym.fresh(level=2), 1)
        graph = lower_trace(sym.trace).graph
        assert list(graph.nodes) == ["stage0/rot0"]
        with pytest.raises(TypeError, match="prefix"):
            lower_trace(sym.trace, prefix="wl")

    def test_mod_raise_level_is_output_level(self, sym):
        ct = sym.fresh(level=0)
        sym.mod_raise(ct)
        graph = lower_trace(sym.trace).graph
        (block,) = _blocks(graph).values()
        assert block.block_type is BlockType.MOD_RAISE
        assert block.level == sym.params.max_level


class TestRoundTrip:
    """Acceptance: plain CkksEvaluator program -> trace -> DAG -> sim."""

    @pytest.fixture(scope="class")
    def ctx(self):
        return CkksContext.toy(seed=13)

    @pytest.fixture(scope="class")
    def traced_conv(self, ctx):
        tev = TracingEvaluator(ctx.evaluator, name="conv")
        kernel = np.array([[0.0, 0.1, 0.0], [0.1, 0.5, 0.1],
                           [0.0, 0.1, 0.0]])
        layer = EncryptedConvLayer(ctx, image_size=4, kernel=kernel,
                                   evaluator=tev)
        rng = np.random.default_rng(3)
        image = rng.uniform(0, 1, (4, 4))
        out = layer.apply(ctx.encrypt(image.flatten()))
        return tev, layer, image, out

    def test_traced_functional_result_still_correct(self, ctx,
                                                    traced_conv):
        _, layer, image, out = traced_conv
        got = ctx.decrypt(out)[:16].real.reshape(4, 4)
        assert np.max(np.abs(got - layer.reference(image))) < 1e-3

    def test_lowered_dag_structure(self, ctx, traced_conv):
        tev, *_ = traced_conv
        graph = lower_trace(tev.trace).graph
        assert_workload_dag(graph, params=ctx.params,
                            require_keyswitch_meta=True)
        types = [b.block_type for b in _blocks(graph).values()]
        # 5 non-zero taps: 4 rotations (center tap needs none) + 5
        # masked plaintext multiplies + 4 accumulating adds.
        assert types.count(BlockType.HE_ROTATE) == 4
        assert types.count(BlockType.POLY_MULT) == 5
        assert types.count(BlockType.HE_ADD) == 4

    def test_simulates_under_every_cumulative_config(self, ctx,
                                                     traced_conv):
        tev, *_ = traced_conv
        graph = lower_trace(tev.trace).graph
        for features in cumulative_configs() + [GME_FULL]:
            metrics = BlockGraphSimulator(
                features, params=ctx.params).run(graph, "conv")
            assert metrics.blocks == graph.number_of_nodes()
            assert metrics.cycles > 0

    def test_lowered_graph_is_dag_with_positive_edges(self, ctx,
                                                      traced_conv):
        tev, *_ = traced_conv
        graph = lower_trace(tev.trace).graph
        assert is_directed_acyclic_graph(graph)
        assert all(d["bytes"] > 0
                   for _, _, d in graph.edges(data=True))
