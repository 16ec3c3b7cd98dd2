"""OpTrace serialization: exact ``.rpa`` round-trip + the diff CLI.

A trace reaches disk one way, ``repro.artifact.save_trace``, and comes
back through ``load_trace``; two saved traces diff with
``python -m repro.artifact diff``.
"""

import io
import subprocess
import sys

import pytest

from repro.artifact import (ArtifactFormatError, diff_artifacts, load_trace,
                            read_artifact, save_trace)
from repro.artifact.__main__ import main as artifact_main
from repro.artifact.format import pack_json, unpack_json, write_container
from repro.artifact.writer import trace_blocks
from repro.fhe.params import CkksParameters
from repro.trace import SymbolicEvaluator, TracingEvaluator, lower_trace
from repro.workloads.registry import compile_workload


def _record_toy_trace(params=None):
    ev = TracingEvaluator(SymbolicEvaluator(params
                                            or CkksParameters.toy()),
                          name="toy")
    ct = ev.fresh(level=4)
    prod = ev.he_mult(ct, ct, rescale=True)
    with ev.region("stage"):
        for rotation in (1, 2):
            ev.he_rotate(prod, rotation)
    ev.scalar_add(prod, 0.25 + 0.5j)
    ev.scalar_mult(prod, -1.5, rescale=False)
    ev.poly_mult(prod, ev.plaintext(), rescale=False)
    ev.mod_drop(prod, 1)
    return ev.trace


def _diff(a, b):
    return artifact_main(["diff", a, b])


class TestRoundTrip:
    def test_toy_trace_roundtrips_exactly(self, tmp_path):
        trace = _record_toy_trace()
        path = str(tmp_path / "toy.rpa")
        save_trace(trace, path)
        back = load_trace(path)
        assert back == trace
        assert back.params == trace.params
        assert [op for op in back.ops] == [op for op in trace.ops]

    def test_complex_scalar_meta_survives(self, tmp_path):
        trace = _record_toy_trace()
        path = str(tmp_path / "toy.rpa")
        save_trace(trace, path)
        back = load_trace(path)
        values = [op.meta["value"] for op in back.ops if "value" in op.meta]
        assert (0.25 + 0.5j) in values

    def test_paper_scale_symbolic_trace_roundtrips(self, tmp_path):
        """Exact round-trip at paper-scale symbolic params."""
        trace = compile_workload("boot").trace
        path = str(tmp_path / "boot.rpa")
        save_trace(trace, path)
        back = load_trace(path)
        assert back == trace
        assert back.params.ring_degree == 1 << 16

    def test_loaded_trace_lowers_to_the_same_graph_shape(self, tmp_path):
        trace = _record_toy_trace()
        path = str(tmp_path / "toy.rpa")
        save_trace(trace, path)
        original = lower_trace(trace).graph
        reloaded = lower_trace(load_trace(path)).graph
        assert sorted(original.nodes) == sorted(reloaded.nodes)
        assert sorted(original.edges) == sorted(reloaded.edges)

    def test_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "junk.rpa"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(ArtifactFormatError,
                           match="not an .rpa artifact"):
            load_trace(str(path))

    @staticmethod
    def _load_with_params(tmp_path, mutate):
        trace = _record_toy_trace()
        blocks = trace_blocks(trace)
        header = unpack_json(blocks[0][1], "HEADER")
        mutate(header["params"])
        blocks[0] = (blocks[0][0], pack_json(header))
        stream = io.BytesIO()
        write_container(stream, blocks)
        path = tmp_path / "toy.rpa"
        path.write_bytes(stream.getvalue())
        return trace, load_trace(str(path))

    def test_legacy_exact_mod_down_mode_is_dropped(self, tmp_path):
        """Every artifact written before the knob went carries it."""
        trace, back = self._load_with_params(
            tmp_path, lambda doc: doc.update(mod_down_mode="exact"))
        assert back == trace

    @pytest.mark.parametrize("mutate,message", [
        (lambda doc: doc.update(mod_down_mode="approx"),
         "mod_down_mode.*approx.*removed"),
        (lambda doc: doc.update(ring_dimension=1024),
         "unknown key.*'ring_dimension'"),
        (lambda doc: doc.pop("dnum"), "missing key.*'dnum'"),
    ], ids=["approx", "unknown", "missing"])
    def test_a_bad_params_document_is_a_value_error_naming_the_key(
            self, tmp_path, mutate, message):
        with pytest.raises(ValueError, match=message):
            self._load_with_params(tmp_path, mutate)


class TestDiffTool:
    @pytest.fixture()
    def pair(self, tmp_path):
        a = str(tmp_path / "a.rpa")
        save_trace(_record_toy_trace(), a)
        ev = TracingEvaluator(SymbolicEvaluator(CkksParameters.toy()),
                              name="other")
        ct = ev.fresh(level=4)
        ev.he_mult(ct, ct, rescale=True)
        b = str(tmp_path / "b.rpa")
        save_trace(ev.trace, b)
        return a, b

    def test_identical_traces_exit_zero(self, pair, capsys):
        a, _ = pair
        assert _diff(a, a) == 0
        assert "no structural deltas" in capsys.readouterr().out

    def test_different_traces_exit_one_and_print_deltas(self, pair,
                                                        capsys):
        a, b = pair
        assert _diff(a, b) == 1
        out = capsys.readouterr().out
        assert "TRACE_OPS deltas" in out
        assert "kind[he_rotate]" in out
        assert "level[" in out

    def test_count_deltas_shape(self, pair):
        """Equal traces: the TRACE_OPS block carries no count rows."""
        a, _ = pair
        diff = diff_artifacts(read_artifact(a), read_artifact(a))
        (trace_block,) = [block for block in diff.blocks
                          if block.block == "TRACE_OPS"]
        assert trace_block.rows == {}

    def test_module_is_runnable(self, pair):
        """``python -m repro.artifact diff`` works as a subprocess."""
        a, _ = pair
        proc = subprocess.run(
            [sys.executable, "-m", "repro.artifact", "diff", a, a],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "no structural deltas" in proc.stdout
