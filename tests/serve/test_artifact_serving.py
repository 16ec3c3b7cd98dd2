"""Deploy-from-artifact: PlanServer fed by a saved ``.rpa`` plan.

The serving layer's shared-plan cache can load a previously saved
real-mode plan instead of compiling one.  The contract: a loaded plan
serves the same results as a compiled one, refuses to deploy under the
wrong workload or parameters, passes the same strict lint, and its
header fingerprint is stamped into every metrics snapshot.
"""

import numpy as np
import pytest

from repro.fhe.params import CkksParameters
from repro.serve import (PlanServer, scoring_workload, serve,
                         shared_plan)
from repro.serve.cache import clear_serve_caches

TOY = CkksParameters.toy()


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_serve_caches()
    yield
    clear_serve_caches()


@pytest.fixture()
def workload():
    return scoring_workload(8)


@pytest.fixture()
def artifact(tmp_path, workload):
    path = str(tmp_path / "score.rpa")
    workload.compile(TOY).save(path)
    return path


class TestSharedPlanFromArtifact:
    def test_loaded_plan_is_cached(self, workload, artifact):
        a = shared_plan(workload, TOY, artifact=artifact)
        b = shared_plan(workload, TOY, artifact=artifact)
        assert a is b

    def test_artifact_and_compiled_plans_cache_separately(
            self, workload, artifact):
        loaded = shared_plan(workload, TOY, artifact=artifact)
        compiled = shared_plan(workload, TOY)
        assert loaded is not compiled
        assert loaded.trace == compiled.trace

    def test_wrong_workload_refused(self, artifact):
        other = scoring_workload(16, name="other")
        with pytest.raises(ValueError, match="does not serve"):
            shared_plan(other, TOY, artifact=artifact)

    def test_wrong_params_refused(self, workload, artifact):
        with pytest.raises(ValueError, match="parameters"):
            shared_plan(workload, CkksParameters.test(),
                        artifact=artifact)

    def test_loaded_plan_lints_strict(self, workload, artifact):
        plan = shared_plan(workload, TOY, artifact=artifact)
        assert plan.lint_report is not None


class TestServeFromArtifact:
    def test_results_match_compiled_path(self, workload, artifact):
        queries = [np.arange(8, dtype=float) / 8,
                   np.ones(8) * 0.25,
                   np.linspace(0.0, 0.5, 8)]
        server = PlanServer.real(workload, TOY, artifact=artifact)
        from_artifact, snap = serve(workload, queries, TOY,
                                    server=server)
        clear_serve_caches()
        from_compile, _ = serve(workload, queries, TOY)
        for a, b in zip(from_artifact, from_compile):
            assert np.allclose(a, b)
        assert snap["served"] == len(queries)

    def test_fingerprint_in_metrics_snapshot(self, workload, artifact):
        from repro.artifact import read_artifact
        expected = read_artifact(artifact).fingerprint
        server = PlanServer.real(workload, TOY, artifact=artifact)
        results, snap = serve(workload,
                              [np.ones(8) * 0.1], TOY, server=server)
        assert snap["plan_fingerprint"] == expected
        # start() resets metrics; the fingerprint must survive the reset
        # (serve() above went through start/stop).
        assert server.metrics.plan_fingerprint == expected

    def test_compiled_path_also_fingerprints(self, workload):
        server = PlanServer.real(workload, TOY)
        assert server.plan_fingerprint is not None
        assert (server.metrics.snapshot()["plan_fingerprint"]
                == server.plan_fingerprint)


@pytest.mark.parametrize("width", [8, 16])
def test_a_saved_scoring_plan_replays_bit_identically(tmp_path, width):
    """Deploy-from-artifact keeps every ``rotate_add`` group: save ->
    ``load_plan`` -> execute is the compiled plan's result, bit for bit
    (width 8 ends in the radix-2 tail ``[4]``)."""
    from repro import engine
    from repro.fhe import CkksContext
    from repro.fhe.packing import rotation_groups
    from repro.trace import OpKind

    plan = scoring_workload(width).compile(TOY)
    path = str(tmp_path / "score.rpa")
    plan.save(path)
    loaded = engine.load_plan(path)
    assert loaded.trace == plan.trace
    assert [op.meta["rotations"] for op in loaded.trace.ops
            if op.kind is OpKind.ROTATE_ADD] == rotation_groups(width)
    ctx = CkksContext(TOY, seed=5)
    ct = ctx.encrypt(np.linspace(-1.0, 1.0, TOY.num_slots))
    assert engine.bit_identical(loaded.execute(ctx, sources=[ct]).output,
                                plan.execute(ctx, sources=[ct]).output)


class TestSimulatedFromArtifact:
    def test_rpa_path_accepted(self, tmp_path):
        from repro import engine
        plan = engine.compile("boot", TOY)
        path = str(tmp_path / "boot.rpa")
        plan.save(path)
        server = PlanServer.simulated(path, width=8)
        assert server.plan_fingerprint == plan.fingerprint
        assert (server.executor.seconds_per_execution
                == PlanServer.simulated(plan, width=8)
                .executor.seconds_per_execution)

    def test_param_mismatch_refused(self, tmp_path):
        from repro import engine
        plan = engine.compile("boot", TOY)
        path = str(tmp_path / "boot.rpa")
        plan.save(path)
        with pytest.raises(ValueError, match="parameters"):
            PlanServer.simulated(path, width=8,
                                 params=CkksParameters.paper())

    def test_plan_param_mismatch_refused(self):
        from repro import engine
        plan = engine.compile("boot", TOY)
        with pytest.raises(ValueError, match="plan 'boot'.*parameters"):
            PlanServer.simulated(plan, width=8,
                                 params=CkksParameters.test())
