"""OpTrace JSONL serialization: exact round-trip + the diff CLI."""

import json

import pytest

from repro.fhe.params import CkksParameters
from repro.trace import (OpTrace, SymbolicEvaluator, TracingEvaluator,
                         lower_trace)
from repro.trace.diff import count_deltas, main as diff_main
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


class TestRoundTrip:
    def test_toy_trace_roundtrips_exactly(self, tmp_path):
        trace = _record_toy_trace()
        path = tmp_path / "toy.jsonl"
        trace.save_jsonl(str(path))
        back = OpTrace.load_jsonl(str(path))
        assert back == trace
        assert back.params == trace.params
        assert [op for op in back.ops] == [op for op in trace.ops]

    def test_complex_scalar_meta_survives(self, tmp_path):
        trace = _record_toy_trace()
        path = tmp_path / "toy.jsonl"
        trace.save_jsonl(str(path))
        back = OpTrace.load_jsonl(str(path))
        values = [op.meta["value"] for op in back.ops if "value" in op.meta]
        assert (0.25 + 0.5j) in values

    def test_paper_scale_symbolic_trace_roundtrips(self, tmp_path):
        """Satellite: exact round-trip at paper-scale symbolic params."""
        trace = compile_workload("boot").trace
        path = tmp_path / "boot.jsonl"
        trace.save_jsonl(str(path))
        back = OpTrace.load_jsonl(str(path))
        assert back == trace
        assert back.params.ring_degree == 1 << 16

    def test_loaded_trace_lowers_to_the_same_graph_shape(self, tmp_path):
        trace = _record_toy_trace()
        path = tmp_path / "toy.jsonl"
        trace.save_jsonl(str(path))
        original = lower_trace(trace)
        reloaded = lower_trace(OpTrace.load_jsonl(str(path)))
        assert sorted(original.nodes) == sorted(reloaded.nodes)
        assert sorted(original.edges) == sorted(reloaded.edges)

    def test_payloads_are_not_serialized(self, tmp_path):
        trace = _record_toy_trace()
        assert trace.payloads
        path = tmp_path / "toy.jsonl"
        trace.save_jsonl(str(path))
        assert not OpTrace.load_jsonl(str(path)).payloads

    def test_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(ValueError, match="not an OpTrace"):
            OpTrace.load_jsonl(str(path))

    @staticmethod
    def _load_with_params(tmp_path, mutate):
        trace = _record_toy_trace()
        path = tmp_path / "toy.jsonl"
        trace.save_jsonl(str(path))
        head, rest = path.read_text().split("\n", 1)
        header = json.loads(head)
        mutate(header["params"])
        path.write_text(json.dumps(header) + "\n" + rest)
        return trace, OpTrace.load_jsonl(str(path))

    def test_legacy_exact_mod_down_mode_is_dropped(self, tmp_path):
        """Every JSONL trace written before the knob went carries it."""
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
        trace = _record_toy_trace()
        a = tmp_path / "a.jsonl"
        trace.save_jsonl(str(a))
        ev = TracingEvaluator(SymbolicEvaluator(CkksParameters.toy()),
                              name="other")
        ct = ev.fresh(level=4)
        ev.he_mult(ct, ct, rescale=True)
        b = tmp_path / "b.jsonl"
        ev.trace.save_jsonl(str(b))
        return str(a), str(b)

    def test_identical_traces_exit_zero(self, pair, capsys):
        a, _ = pair
        assert diff_main([a, a]) == 0
        out = capsys.readouterr().out
        assert "(no deltas)" in out

    def test_different_traces_exit_one_and_print_deltas(self, pair,
                                                        capsys):
        a, b = pair
        assert diff_main([a, b]) == 1
        out = capsys.readouterr().out
        assert "op-type deltas" in out
        assert "he_rotate" in out
        assert "level deltas" in out

    def test_count_deltas_shape(self):
        trace_a = _record_toy_trace()
        trace_b = _record_toy_trace()
        result = count_deltas(trace_a, trace_b)
        assert result == {"by_kind": {}, "by_level": {}}

    def test_module_is_runnable(self, pair):
        """python -m repro.trace.diff must work (satellite CLI)."""
        import subprocess
        import sys
        a, _ = pair
        proc = subprocess.run(
            [sys.executable, "-m", "repro.trace.diff", a, a],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "no deltas" in proc.stdout
