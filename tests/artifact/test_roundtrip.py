"""Round-trip exactness: trace -> .rpa -> trace, plan -> .rpa -> plan.

The container is only useful if nothing leaks in transit: traces must
compare equal field-for-field (meta included), loaded plans must
simulate and profile to the same cycle counts, real-mode plans must
replay bit-identically, and rewriting an unchanged artifact must produce
identical bytes (the golden-corpus property).
"""

import numpy as np
import pytest

from repro import engine
from repro.artifact import load_plan, load_trace, save_plan, save_trace
from repro.fhe import CkksContext
from repro.fhe.params import CkksParameters
from repro.gme.features import BASELINE, GME_FULL
from repro.trace import OpTrace, SymbolicEvaluator, TracingEvaluator

TOY = CkksParameters.toy()
PAPER = CkksParameters.paper()


def _meta_rich_trace(params) -> OpTrace:
    """A trace touching every columnar meta channel + the residual one."""
    ev = TracingEvaluator(SymbolicEvaluator(params), name="rich")
    ct = ev.fresh(level=4)
    scaled = ev.scalar_mult(ct, 0.5 + 0.25j, rescale=True)   # complex
    prod = ev.he_mult(scaled, scaled, rescale=True)
    ev.hoisted_rotations(prod, [1, 3])
    out = ev.he_rotate(prod, 5)
    ev.trace.output_op_id = ev.trace.ops[-1].op_id
    del out
    return ev.trace


class TestTraceRoundTrip:
    @pytest.mark.parametrize("params", [TOY, PAPER],
                             ids=["toy", "paper"])
    def test_exact_round_trip(self, tmp_path, params):
        trace = _meta_rich_trace(params)
        path = str(tmp_path / "rich.rpa")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded == trace          # field-for-field dataclass eq
        assert loaded.params == trace.params
        assert loaded.output_op_id == trace.output_op_id
        for original, restored in zip(trace.ops, loaded.ops):
            assert restored.meta == original.meta
            assert type(restored.level) is int
            assert type(restored.out_scale) is float

    def test_byte_deterministic(self, tmp_path):
        trace = _meta_rich_trace(TOY)
        a, b = (tmp_path / "a.rpa", tmp_path / "b.rpa")
        save_trace(trace, str(a))
        save_trace(trace, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_load_binary_reads_plan_artifacts(self, tmp_path):
        plan = engine.compile("boot", TOY)
        path = str(tmp_path / "boot.rpa")
        plan.save(path)
        assert load_trace(path) == plan.trace


class TestPlanRoundTrip:
    @pytest.mark.parametrize("params", [TOY, PAPER],
                             ids=["toy", "paper"])
    def test_simulate_profile_identical(self, tmp_path, params):
        plan = engine.compile("boot", params)
        path = str(tmp_path / "boot.rpa")
        plan.save(path)
        loaded = engine.load_plan(path)

        assert loaded.trace == plan.trace
        assert loaded.params == plan.params
        for features in (BASELINE, GME_FULL):
            assert (loaded.simulate(features).cycles
                    == plan.simulate(features).cycles)
        assert loaded.profile(GME_FULL).ops == plan.profile(GME_FULL).ops

    def test_relowered_graph_is_the_compiled_graph(self, tmp_path):
        """Each catalog plan's saved trace lowers to the compiled graph
        node-for-node (ids, block fields, metadata, insertion order) and
        edge-for-edge (order and bytes)."""
        for name in engine.workload_names():
            plan = engine.compile(name, CkksParameters.test())
            path = str(tmp_path / f"{name}.rpa")
            plan.save(path)
            loaded = engine.load_plan(path)
            assert list(loaded.graph.nodes) == list(plan.graph.nodes)
            assert list(loaded.graph.edges(data=True)) \
                == list(plan.graph.edges(data=True))
            for node_id in plan.graph.nodes:
                original = plan.graph.nodes[node_id]["block"]
                restored = loaded.graph.nodes[node_id]["block"]
                assert restored.block_id == original.block_id
                assert restored.block_type is original.block_type
                assert restored.level == original.level
                assert restored.repeat == original.repeat
                assert restored.metadata == original.metadata

    def test_a_retired_dag_block_is_skipped_and_relowered(self, tmp_path):
        """A file from before the block graph left the format (a type-3
        block after TRACE_OPS, node / edge counts in HEADER) loads with
        one warning and simulates to the compiled cycles."""
        import io
        import warnings

        from repro.artifact import UnknownBlockWarning, corpus_path
        from repro.artifact.format import (pack_json, read_container,
                                           unpack_json, write_container)
        plan = engine.compile("boot", PAPER)
        blocks = read_container(io.BytesIO(corpus_path("boot").read_bytes()))
        header = unpack_json(blocks[0][1])
        header["counts"].update(nodes=plan.num_blocks,
                                edges=plan.graph.number_of_edges())
        blocks[0] = (blocks[0][0], pack_json(header))
        blocks.insert(2, (3, b"retired block-graph tables"))
        stream = io.BytesIO()
        write_container(stream, blocks)
        path = tmp_path / "boot-old.rpa"
        path.write_bytes(stream.getvalue())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load_plan(str(path))
        assert [w.category for w in caught] == [UnknownBlockWarning]
        assert "block type 3" in str(caught[0].message)
        assert (loaded.simulate(GME_FULL).cycles
                == plan.simulate(GME_FULL).cycles)

    def test_provenance_carried(self, tmp_path):
        plan = engine.compile("resnet", TOY)
        path = str(tmp_path / "resnet.rpa")
        plan.save(path)
        loaded = engine.load_plan(path)
        assert loaded.provenance["tool"] == "repro.artifact"
        assert loaded.provenance["plan_name"] == plan.name
        assert loaded.provenance["fingerprint"] == plan.fingerprint
        assert loaded.provenance["artifact_path"] == path

    def test_execute_bit_identical(self, tmp_path):
        """Real-mode plan -> .rpa (payloads included) -> bit-identical
        replay on a fresh context."""
        from repro.serve import scoring_workload
        workload = scoring_workload(8)
        plan = workload.compile(TOY)
        path = str(tmp_path / "score.rpa")
        plan.save(path)
        loaded = load_plan(path)

        ctx = CkksContext(TOY, seed=123)
        values = np.arange(TOY.num_slots, dtype=float) / TOY.num_slots
        ct = ctx.encrypt(values)
        out_a = plan.execute(ctx, sources=[ct]).output
        out_b = loaded.execute(ctx, sources=[ct]).output
        assert engine.bit_identical(out_a, out_b)

    def test_payloads_can_be_stripped(self, tmp_path):
        from repro.serve import scoring_workload
        workload = scoring_workload(8)
        plan = workload.compile(TOY)
        path = str(tmp_path / "bare.rpa")
        save_plan(plan, path, include_payloads=False)
        loaded = load_plan(path)
        assert not loaded.trace.payloads
        ctx = CkksContext(TOY, seed=123)
        ct = ctx.encrypt(np.zeros(TOY.num_slots))
        with pytest.raises(engine.PlanError, match="payload"):
            loaded.execute(ctx, sources=[ct])

    def test_trace_artifact_loads_as_plan(self, tmp_path):
        """A bare trace artifact lowers on load and still simulates."""
        plan = engine.compile("boot", TOY)
        path = str(tmp_path / "trace_only.rpa")
        save_trace(plan.trace, path)
        loaded = load_plan(path)
        assert (loaded.simulate(GME_FULL).cycles
                == plan.simulate(GME_FULL).cycles)

    def test_load_trace_requires_trace_block(self, tmp_path):
        import io

        from repro.artifact import ArtifactBlockType, ArtifactError
        from repro.artifact.format import pack_json, write_container
        from repro.artifact.writer import build_header
        plan = engine.compile("boot", TOY)
        header = build_header(plan.trace, kind="trace")
        path = tmp_path / "empty.rpa"
        stream = io.BytesIO()
        write_container(stream, [(int(ArtifactBlockType.HEADER),
                                  pack_json(header))])
        path.write_bytes(stream.getvalue())
        with pytest.raises(ArtifactError, match="no TRACE_OPS"):
            load_trace(str(path))


class TestAtomicWrites:
    def test_binary_atomic_replace(self, tmp_path):
        """A failed save never clobbers the previous good file, and no
        temp litter survives."""
        trace = _meta_rich_trace(TOY)
        path = tmp_path / "t.rpa"
        save_trace(trace, str(path))
        good = path.read_bytes()

        bad = _meta_rich_trace(TOY)
        bad.ops[0].meta["value"] = object()      # unserializable meta
        with pytest.raises(Exception):
            save_trace(bad, str(path))
        assert path.read_bytes() == good
        assert list(tmp_path.glob("*.tmp")) == []
