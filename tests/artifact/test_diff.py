"""Per-block artifact diffing: semantics and CLI exit codes.

Covers ``repro.artifact.diffing`` (equal artifacts diff empty; each
block type reports its own deltas; a trace-kind and a plan-kind
artifact compare only shared sections) and the one CLI front door,
``python -m repro.artifact diff``.
"""

import pytest

from repro import engine
from repro.artifact import (diff_artifacts, load_trace, read_artifact,
                            render_diff, save_trace)
from repro.artifact.diffing import artifact_view
from repro.fhe.params import CkksParameters

TOY = CkksParameters.toy()


@pytest.fixture()
def boot_rpa(tmp_path):
    plan = engine.compile("boot", TOY)
    path = str(tmp_path / "boot.rpa")
    plan.save(path)
    return path


@pytest.fixture()
def resnet_rpa(tmp_path):
    plan = engine.compile("resnet", TOY)
    path = str(tmp_path / "resnet.rpa")
    plan.save(path)
    return path


class TestDiffSemantics:
    def test_equal_artifacts_no_deltas(self, boot_rpa):
        a, b = read_artifact(boot_rpa), read_artifact(boot_rpa)
        diff = diff_artifacts(a, b)
        assert not diff
        assert diff.deltas() == []
        assert "no structural deltas" in render_diff(diff)

    def test_saved_equals_in_memory_view(self, boot_rpa):
        plan = engine.compile("boot", TOY)
        assert not diff_artifacts(artifact_view(plan),
                                  read_artifact(boot_rpa))

    def test_different_workloads_delta_everywhere(self, boot_rpa,
                                                  resnet_rpa):
        diff = diff_artifacts(read_artifact(boot_rpa),
                              read_artifact(resnet_rpa))
        blocks = {d.block for d in diff.deltas()}
        assert {"HEADER", "TRACE_OPS"} <= blocks

    def test_param_change_shows_in_header(self, tmp_path):
        a = engine.compile("boot", TOY)
        b = engine.compile("boot", CkksParameters.test())
        diff = diff_artifacts(artifact_view(a), artifact_view(b))
        header = next(d for d in diff.deltas() if d.block == "HEADER")
        assert "params_fingerprint" in header.rows

    def test_meta_only_change_caught_by_stream_hash(self, tmp_path):
        """Count profiles identical, one op's meta different: the
        count_deltas rows are empty but the op-stream hash still flags
        the structural change."""
        plan = engine.compile("boot", TOY)
        path_a = str(tmp_path / "a.rpa")
        path_b = str(tmp_path / "b.rpa")
        save_trace(plan.trace, path_a)
        mutated = load_trace(path_a)
        mutated.ops[1].meta["rotation"] = 999
        save_trace(mutated, path_b)
        diff = diff_artifacts(read_artifact(path_a), read_artifact(path_b))
        trace_block = next(d for d in diff.deltas()
                           if d.block == "TRACE_OPS")
        assert "op_stream" in trace_block.rows
        assert not any(row.startswith("kind[")
                       for row in trace_block.rows)

    def test_trace_and_plan_artifacts_share_sections(self, tmp_path,
                                                     boot_rpa):
        plan = engine.compile("boot", TOY)
        trace_rpa = str(tmp_path / "boot-trace.rpa")
        save_trace(plan.trace, trace_rpa)
        diff = diff_artifacts(read_artifact(boot_rpa),
                              read_artifact(trace_rpa))
        # Same trace; provenance exists on one side only.
        assert not diff


class TestArtifactDiffCli:
    def test_identical_exit_zero(self, boot_rpa, capsys):
        from repro.artifact.__main__ import main
        assert main(["diff", boot_rpa, boot_rpa]) == 0
        assert "no structural deltas" in capsys.readouterr().out

    def test_delta_exit_one(self, boot_rpa, resnet_rpa, capsys):
        from repro.artifact.__main__ import main
        assert main(["diff", boot_rpa, resnet_rpa]) == 1
        out = capsys.readouterr().out
        assert "TRACE_OPS deltas" in out

    def test_unreadable_exit_two(self, tmp_path, boot_rpa, capsys):
        from repro.artifact.__main__ import main
        garbage = tmp_path / "garbage.rpa"
        garbage.write_bytes(b"not a container at all")
        assert main(["diff", boot_rpa, str(garbage)]) == 2
        assert "garbage.rpa" in capsys.readouterr().err

    def test_inspect_lists_blocks(self, boot_rpa, capsys):
        from repro.artifact.__main__ import main
        assert main(["inspect", boot_rpa]) == 0
        out = capsys.readouterr().out
        for block in ("HEADER", "TRACE_OPS", "PROVENANCE"):
            assert block in out
        assert "DAG" not in out

    def test_inspect_missing_file_exit_two(self, tmp_path, capsys):
        from repro.artifact.__main__ import main
        assert main(["inspect", str(tmp_path / "nope.rpa")]) == 2

    def test_diff_json_envelope(self, boot_rpa, resnet_rpa, capsys):
        import json

        from repro.artifact.__main__ import main
        assert main(["diff", boot_rpa, resnet_rpa, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "artifact.diff"
        assert "TRACE_OPS" in doc["diff"]["deltas"]



class TestTraceDiffRouting:
    """Saved traces (trace-kind artifacts) diff through the same
    per-block differ as plans: there is one diff."""

    def test_rpa_vs_rpa_routes_to_artifact_differ(self, tmp_path, capsys):
        from repro.artifact.__main__ import main
        path = str(tmp_path / "boot-trace.rpa")
        save_trace(engine.compile("boot", TOY).trace, path)
        assert main(["diff", path, path]) == 0
        out = capsys.readouterr().out
        assert "(boot, trace, " in out
        assert "no structural deltas" in out

    def test_unreadable_rpa_exit_two(self, tmp_path, boot_rpa, capsys):
        from repro.artifact.__main__ import main
        garbage = tmp_path / "bad.rpa"
        garbage.write_bytes(b"\x00" * 32)
        assert main(["diff", str(garbage), boot_rpa]) == 2
        err = capsys.readouterr().err
        assert "bad.rpa" in err
