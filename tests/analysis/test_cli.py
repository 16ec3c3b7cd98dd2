"""The ``python -m repro.analysis`` CLI: targets, JSON, goldens, exits.

Exit-code contract: 0 clean (warnings allowed), 1 error findings or a
golden mismatch, 2 usage/load failures.  The checked-in catalog golden
(``catalog_warnings.json``) is re-derived here so CI and local runs
cannot drift apart silently.
"""

import json
import os

import pytest

from repro.analysis.__main__ import main
from repro.artifact import save_trace
from repro.fhe.params import CkksParameters
from repro.trace.ir import OpKind, OpTrace, TraceOp

GOLDEN = os.path.join(os.path.dirname(__file__), "catalog_warnings.json")
TOY = CkksParameters.toy()


def _defect_trace(tmp_path):
    """One HE001 (rescale at level 0) saved as a trace artifact."""
    trace = OpTrace(params=TOY, name="defect")
    trace.append(TraceOp(op_id=0, kind=OpKind.SOURCE, inputs=(),
                         level=0, out_level=0,
                         out_scale=2.0 ** TOY.scale_bits))
    trace.append(TraceOp(op_id=1, kind=OpKind.RESCALE, inputs=(0,),
                         level=0, out_level=0,
                         out_scale=2.0 ** TOY.scale_bits))
    path = tmp_path / "defect.rpa"
    save_trace(trace, str(path))
    return str(path)


def _dead_op_trace(tmp_path):
    """One HE120 (dead add), warning severity only."""
    trace = OpTrace(params=TOY, name="deadop", output_op_id=1)
    delta = 2.0 ** TOY.scale_bits
    trace.append(TraceOp(op_id=0, kind=OpKind.SOURCE, inputs=(),
                         level=4, out_level=4, out_scale=delta))
    trace.append(TraceOp(op_id=1, kind=OpKind.HE_ADD, inputs=(0, 0),
                         level=4, out_level=4, out_scale=delta))
    trace.append(TraceOp(op_id=2, kind=OpKind.HE_ADD, inputs=(0, 0),
                         level=4, out_level=4, out_scale=delta))
    path = tmp_path / "deadop.rpa"
    save_trace(trace, str(path))
    return str(path)


class TestTargets:
    def test_workload_name_lints_clean_exit_zero(self, capsys):
        assert main(["boot", "--params", "test"]) == 0
        out = capsys.readouterr().out
        assert "lint boot@test: 0 errors" in out

    def test_trace_file_with_error_exits_one(self, tmp_path, capsys):
        assert main([_defect_trace(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "HE001" in out and "1 errors" in out

    def test_trace_file_with_warning_only_exits_zero(self, tmp_path,
                                                     capsys):
        assert main([_dead_op_trace(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "HE120" in out

    def test_unknown_target_exits_two(self, capsys):
        assert main(["not-a-workload-or-file"]) == 2
        err = capsys.readouterr().err
        assert "neither a catalog workload" in err

    def test_unreadable_trace_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.rpa"
        bad.write_text('{"format": "something-else"}\n')
        assert main([str(bad)]) == 2
        assert "not an .rpa artifact" in capsys.readouterr().err

    def test_target_and_catalog_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["boot", "--catalog"])
        with pytest.raises(SystemExit):
            main([])


class TestJsonReport:
    def test_json_report_uses_the_export_envelope(self, tmp_path):
        out = tmp_path / "report.json"
        assert main([_defect_trace(tmp_path), "--json", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["kind"] == "analysis.lint"
        assert doc["errors"] == 1
        (report,) = doc["reports"]
        assert report["codes"] == {"HE001": 1}
        (diag,) = report["diagnostics"]
        assert diag["severity"] == "error"
        assert diag["op_id"] == 1 and diag["kind"] == "rescale"

    def test_json_to_stdout(self, tmp_path, capsys):
        assert main([_defect_trace(tmp_path), "--json", "-"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "analysis.lint"

    def test_op_mix_flag_includes_the_table(self, capsys):
        assert main(["boot", "--params", "test", "--op-mix"]) == 0
        out = capsys.readouterr().out
        assert "key switches" in out and "levels:" in out


class TestGoldens:
    def test_checked_in_catalog_golden_matches(self, capsys):
        """The catalog at paper params vs the committed golden."""
        assert main(["--catalog", "--params", "paper",
                     "--golden", GOLDEN]) == 0

    def test_update_golden_reproduces_the_checked_in_file(self,
                                                          tmp_path,
                                                          capsys):
        regenerated = tmp_path / "golden.json"
        assert main(["--catalog", "--params", "paper",
                     "--update-golden", str(regenerated)]) == 0
        assert (json.loads(regenerated.read_text())
                == json.load(open(GOLDEN)))

    def test_golden_mismatch_exits_one(self, tmp_path, capsys):
        stale = {"params": "paper",
                 "workloads": {"boot@paper": {"HE001": 3}}}
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(stale))
        assert main(["--catalog", "--params", "paper",
                     "--golden", str(path)]) == 1
        err = capsys.readouterr().err
        assert "golden mismatch" in err and "boot@paper" in err

    def test_catalog_has_zero_error_budget(self, capsys):
        """Acceptance: every catalog workload lints clean at paper."""
        assert main(["--catalog", "--params", "paper"]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out
        for name in ("boot@paper", "helr@paper", "resnet@paper"):
            assert name in out
