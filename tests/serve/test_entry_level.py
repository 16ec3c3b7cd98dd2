"""A served plan enters at the lowest level its declared result needs.

``ServedWorkload.entry_level`` searches the levels on the symbolic
evaluator; the plan is recorded once, from a source at that level,
with the declared ``result_bound`` stamped on its output op, where the
deploy lint (``HE031``) holds it.  Admission refuses a query outside the
declared ``input_bound`` before it can join a batch.
"""

import asyncio

import numpy as np
import pytest

from pins import PRESETS
from repro.analysis import LintError
from repro.artifact import load_plan
from repro.fhe.packing import SlotLayout
from repro.fhe.params import CkksParameters
from repro.serve import (InputOutOfDomain, PlanServer, ServedWorkload,
                         TenantKeyCache, scoring_workload, serve,
                         shared_plan)
from repro.serve.cache import clear_serve_caches
from repro.trace import SymbolicEvaluator

WIDTH = 16
WEIGHTS = 0.5 + np.arange(WIDTH) / (2.0 * WIDTH)


ENTRY = {"toy": 3, "pw54": 2}


def _codes(plan) -> set[str]:
    return set(plan.lint().codes())


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_serve_caches()
    yield
    clear_serve_caches()


class TestEntryLevel:
    def test_scoring_declares_its_domain_and_result(self):
        workload = scoring_workload(WIDTH, weights=WEIGHTS)
        assert workload.input_bound == 1.0
        assert workload.result_bound == pytest.approx(11.75 ** 2)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_scoring_enters_two_levels_above_its_last_fit(self, preset):
        params = PRESETS[preset]()
        plan = scoring_workload(WIDTH).compile(params)
        assert scoring_workload(WIDTH).entry_level(params) \
            == plan.entry_level == ENTRY[preset]
        assert not _codes(plan) & {"HE031"}

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_the_symbolic_search_predicts_the_real_output(self, preset):
        """The level and scale the search reads off the symbolic
        evaluator are the real plan's output op's, bit for bit."""
        params = PRESETS[preset]()
        workload = scoring_workload(WIDTH)
        ev = SymbolicEvaluator(params)
        out = workload.build_program(workload.layout(params))(
            ev, ev.fresh(ENTRY[preset]))
        plan = workload.compile(params)
        real = plan.trace.op(plan.trace.output_op_id)
        assert (out.level, out.scale) == (real.out_level, real.out_scale)

    def test_no_declared_bound_keeps_max_level(self):
        params = CkksParameters.toy()
        base = scoring_workload(WIDTH)
        workload = ServedWorkload(name="unbounded", width=WIDTH,
                                  build_program=base.build_program)
        plan = workload.compile(params)
        assert workload.entry_level(params) == plan.entry_level == 5
        assert all("result_bound" not in op.meta for op in plan.trace.ops)


class TestHeadroomLint:
    """HE031 and the overflow it exists for.  Scoring at ``toy`` from
    level 2 ends at level 0, where q_0 ~ 2^31 cannot hold a scale of
    2^29 times a result up to 2^7.1 with two bits to spare."""

    def test_a_level_2_scoring_plan_is_refused(self):
        plan = scoring_workload(WIDTH)._compile_at(CkksParameters.toy(), 2)
        report = plan.lint()
        assert [finding.code for finding in report.errors] == ["HE031"]
        with pytest.raises(LintError, match="HE031"):
            report.raise_for_errors()

    def test_the_same_program_from_level_3_lints_clean(self):
        plan = scoring_workload(WIDTH)._compile_at(CkksParameters.toy(), 3)
        assert len(plan.lint()) == 0

    @pytest.mark.parametrize("level, codes", [(2, {"HE031"}), (3, set())])
    def test_save_load_keeps_the_bound_and_the_verdict(self, tmp_path,
                                                       level, codes):
        plan = scoring_workload(WIDTH)._compile_at(CkksParameters.toy(),
                                                   level)
        path = str(tmp_path / "score.rpa")
        plan.save(path)
        loaded = load_plan(path)
        output = loaded.trace.op(loaded.trace.output_op_id)
        assert output.meta["result_bound"] == pytest.approx(11.75 ** 2)
        assert loaded.entry_level == level
        assert _codes(loaded) == codes

    def test_deploying_a_wrapping_artifact_is_refused(self, tmp_path):
        workload = scoring_workload(WIDTH)
        path = str(tmp_path / "score.rpa")
        workload._compile_at(CkksParameters.toy(), 2).save(path)
        with pytest.raises(LintError, match="HE031"):
            shared_plan(workload, CkksParameters.toy(), artifact=path)

    def test_a_result_no_level_holds_is_refused_at_compile(self):
        """A bound of 2^100 fits under no level at ``toy`` (Q_3, the
        output modulus from ``max_level``, is 2^118 against a 2^29
        scale): the plan stays at ``max_level`` and the strict lint
        refuses it."""
        workload = ServedWorkload(
            name="huge", width=WIDTH,
            build_program=scoring_workload(WIDTH).build_program,
            input_bound=1.0, result_bound=2.0 ** 100)
        params = CkksParameters.toy()
        assert workload.entry_level(params) == params.max_level
        with pytest.raises(LintError, match="HE031"):
            workload.compile(params)

    def test_a_plan_saved_without_a_bound_deploys_at_its_level(
            self, tmp_path):
        """Files written before the bound existed carry none and a
        SOURCE at ``max_level``: they deploy, and serve, from there."""
        workload = scoring_workload(WIDTH)
        plan = workload._compile_at(CkksParameters.toy(), 5)
        for op in plan.trace.ops:
            op.meta.pop("result_bound", None)
        path = str(tmp_path / "old.rpa")
        plan.save(path)
        server = PlanServer.real(workload, CkksParameters.toy(),
                                 artifact=path)
        assert server.executor.plan.entry_level == 5
        query = np.linspace(0.1, 1.0, WIDTH)
        (result,), _ = serve(workload, [query], server=server)
        assert result[0] == pytest.approx(np.dot(WEIGHTS, query) ** 2,
                                          abs=1e-3)


class TestInputDomain:
    def test_an_out_of_domain_query_is_refused_and_counted(self):
        workload = scoring_workload(WIDTH)
        server = PlanServer.real(workload, CkksParameters.toy())
        inside = np.linspace(-1.0, 1.0, WIDTH)
        outside = inside.copy()
        outside[3] = 1.5

        async def run():
            async with server:
                with pytest.raises(InputOutOfDomain, match="input bound"):
                    await server.submit(outside)
                assert server.batcher.pending_count() == 0
                return await server.submit(inside)

        result = asyncio.run(run())
        assert result[0] == pytest.approx(np.dot(WEIGHTS, inside) ** 2,
                                          abs=1e-3)
        snapshot = server.metrics.snapshot()
        assert snapshot["rejected_by_reason"] == {"domain": 1}
        assert snapshot["served"] == 1

    def test_an_executor_without_a_domain_admits_anything(self):
        """The simulated executor and test stubs declare no domain: the
        server skips the check."""

        class Echo:
            layout = SlotLayout.for_params(CkksParameters.toy(), WIDTH)

            def run(self, batch):
                return [q.values[:1] for q in batch.queries], 1e-6

        (result,), snapshot = serve(None, [np.full(WIDTH, 5.0)],
                                    server=PlanServer(Echo()))
        assert result[0] == 5.0 and snapshot["rejected"] == 0

    @pytest.mark.parametrize("backend", ["stacked", "reference"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_a_worst_case_query_at_the_bound_decodes(self, preset,
                                                     backend):
        """Every slot at +1.0, then every slot at -1.0: the result is the
        declared bound itself, served from the entry level."""
        params = PRESETS[preset](backend=backend)
        workload = scoring_workload(WIDTH)
        queries = [np.ones(WIDTH), -np.ones(WIDTH)]
        results, snapshot = serve(workload, queries, params,
                                  key_cache=TenantKeyCache())
        assert snapshot["served"] == 2
        for result in results:
            assert result[0] == pytest.approx(workload.result_bound,
                                              abs=1e-3)
