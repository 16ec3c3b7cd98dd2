"""The surface removed with the second plan source and timing model.

One road to a cycle count: a catalog name compiles to a traced plan and
BlockSim prices it.  Each case pins the absence of the fork it names.
"""

import pytest

import repro.gpusim
from repro import engine
from repro.fhe.params import CkksParameters
from repro.serve.server import _plan_fingerprint
from repro.workloads import compile_workload, workload_names


def test_compile_workload_takes_no_source():
    with pytest.raises(TypeError, match="source"):
        compile_workload("boot", source="legacy")


def test_a_plan_cannot_exist_without_a_trace():
    assert not hasattr(engine.ExecutablePlan, "from_graph")
    plan = compile_workload("boot", CkksParameters.test())
    with pytest.raises(TypeError, match="trace"):
        engine.ExecutablePlan(plan.params, plan.graph, plan.name)


def test_runner_rejects_the_source_flag(capsys):
    from repro.experiments.runner import main
    with pytest.raises(SystemExit) as excinfo:
        main(["--list", "--source", "legacy"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --source" in capsys.readouterr().err


def test_gpusim_exports_only_what_the_timing_model_reads():
    assert sorted(repro.gpusim.__all__) == sorted([
        "GpuConfig", "mi100", "ISSUE_CYCLES", "LATENCY_SEQUENCES",
        "PAPER_TABLE4", "MicroOp", "PipelineProfile", "LdsModel",
        "ScoreboardPipeline", "measure_table4"])


def test_every_plan_has_a_fingerprint():
    """``None`` means "no plan"; a plan that cannot fingerprint is an
    error, not a server quietly exporting ``plan_fingerprint: null``."""
    for name in workload_names():
        plan = compile_workload(name, CkksParameters.test())
        assert isinstance(plan.fingerprint, str)
        assert _plan_fingerprint(plan) == plan.fingerprint
    assert _plan_fingerprint(None) is None

    class Unfingerprintable:
        provenance = None

        @property
        def fingerprint(self):
            raise ValueError("no artifact view")

    with pytest.raises(ValueError, match="no artifact view"):
        _plan_fingerprint(Unfingerprintable())
