"""Lint wired into the front doors: engine.compile, serve, workloads.

The acceptance contract: injecting each defect class into a trace and
compiling with ``lint="strict"`` raises :class:`LintError` carrying
exactly that class's HE0xx code; ``lint="warn"`` emits a
:class:`LintWarning` instead; catalog workloads compile strict-clean;
serve deploys always lint strict and stamp batcher slot windows onto
the plan's SOURCE ops.
"""

import numpy as np
import pytest

from repro import engine
from repro.analysis import LintError, LintWarning
from repro.fhe.params import CkksParameters
from repro.trace.ir import OpKind, OpTrace, TraceOp
from repro.trace.ops import galois_groups
from repro.workloads import compile_workload, workload_names

TOY = CkksParameters.toy()
#: Catalog workloads need the deeper chain of the "test" preset.
TEST = CkksParameters.test()
DELTA = 2.0 ** TOY.scale_bits


def _add(trace, kind, inputs=(), level=4, out_level=None,
         out_scale=DELTA, key=None, meta=None):
    op = TraceOp(op_id=len(trace.ops), kind=kind, inputs=tuple(inputs),
                 level=level,
                 out_level=level if out_level is None else out_level,
                 out_scale=out_scale, key=key, meta=dict(meta or {}))
    trace.append(op)
    return op.op_id


def _mult_meta(level):
    return {"digits": -(-(level + 1) // TOY.alpha), "dnum": TOY.dnum}


def level_underflow_trace():
    t = OpTrace(params=TOY, name="inject-underflow")
    src = _add(t, OpKind.SOURCE, level=0)
    _add(t, OpKind.RESCALE, [src], level=0)
    return t, "HE001"


def missing_rescale_trace():
    t = OpTrace(params=TOY, name="inject-missing-rescale")
    a = _add(t, OpKind.SOURCE, level=2, out_scale=2.0 ** 58)
    _add(t, OpKind.HE_MULT, [a, a], level=2, out_scale=2.0 ** 116,
         key="relin", meta=_mult_meta(2))
    return t, "HE010"


def absent_rotation_key_trace():
    t = OpTrace(params=TOY, name="inject-absent-key")
    src = _add(t, OpKind.SOURCE, level=4)
    _add(t, OpKind.HE_ROTATE, [src], level=4,
         key=f"rot-{TOY.num_slots + 3}",
         meta={"rotation": TOY.num_slots + 3})
    return t, "HE020"


def overlapping_windows_trace():
    t = OpTrace(params=TOY, name="inject-overlap")
    _add(t, OpKind.SOURCE, level=4,
         meta={"slot_windows": [[0, 16], [8, 8]]})
    return t, "HE040"


DEFECT_TRACES = [level_underflow_trace, missing_rescale_trace,
                 absent_rotation_key_trace, overlapping_windows_trace]


class TestEngineCompileLint:
    @pytest.mark.parametrize("build", DEFECT_TRACES,
                             ids=lambda f: f.__name__)
    def test_strict_raises_exactly_the_injected_code(self, build):
        trace, code = build()
        with pytest.raises(LintError) as excinfo:
            engine.compile(trace, lint="strict")
        assert excinfo.value.report.codes() == {code: 1}
        assert code in str(excinfo.value)

    @pytest.mark.parametrize("build", DEFECT_TRACES,
                             ids=lambda f: f.__name__)
    def test_warn_mode_warns_with_the_injected_code(self, build):
        trace, code = build()
        with pytest.warns(LintWarning, match=code):
            try:
                engine.compile(trace, lint="warn")
            except Exception:
                pass  # warn mode still feeds the pipeline, which may
                #       reject the defective trace — the warning is the
                #       contract under test

    def test_dead_op_is_a_warning_not_a_strict_failure(self):
        def dead_rotate(ev):
            ct = ev.fresh(level=4)
            out = ev.he_mult(ct, ct, rescale=True)
            ev.he_rotate(out, 1)  # dead: result never used
            return out

        plan = engine.compile(dead_rotate, TOY, lint="strict")
        assert plan.lint_report is not None
        assert plan.lint_report.codes() == {"HE120": 1}

    def test_warning_is_attributed_to_the_compile_caller(self):
        """Both entry points (a program through ``_apply_lint``, a
        pre-recorded trace through ``_plan_from_trace``) report the
        ``engine.compile`` call site, not a frame inside the engine."""
        def dead_rotate(ev):
            ct = ev.fresh(level=4)
            ev.he_rotate(ct, 1)  # dead: result never used
            return ct

        with pytest.warns(LintWarning, match="HE120") as from_program:
            engine.compile(dead_rotate, TOY, lint="warn")
        trace, code = overlapping_windows_trace()
        with pytest.warns(LintWarning, match=code) as from_trace:
            engine.compile(trace, lint="warn")
        for record in (from_program, from_trace):
            assert [w.filename for w in record] == [__file__]

    def test_a_missed_hoist_cannot_be_written(self):
        """Two ``he_rotate`` calls on one ciphertext are one Galois
        group: replay hoists them, so the linter has nothing to say and
        the op mix counts one hoisted stage."""
        from repro.analysis import analyze_trace

        def two_rotations(ev):
            ct = ev.fresh(level=4)
            return ev.he_add(ev.he_rotate(ct, 1), ev.he_rotate(ct, 2))

        plan = engine.compile(two_rotations, TOY)
        assert plan.lint().codes() == {}
        assert galois_groups(plan.trace) == {0: (1, 2)}
        assert analyze_trace(plan.trace).op_mix["hoists"] == 1

    def test_lint_mode_is_validated(self):
        with pytest.raises(ValueError, match="lint='loud'"):
            engine.compile("boot", TOY, lint="loud")

    def test_plan_lint_is_cached(self):
        plan = compile_workload("boot", TOY)
        report = plan.lint()
        assert plan.lint() is report
        assert plan.lint_report is report

    def test_compile_exposes_lint_symbols(self):
        assert engine.LintError is LintError
        assert engine.LintWarning is LintWarning
        assert engine.DiagnosticReport is not None


class TestCatalogLintsClean:
    @pytest.mark.parametrize("name", workload_names())
    def test_workload_compiles_strict_at_test_params(self, name):
        plan = compile_workload(name, TEST, lint="strict")
        assert plan.lint_report is not None
        assert not plan.lint_report.has_errors

    def test_workload_name_through_engine_front_door(self):
        plan = engine.compile("boot", TEST, lint="strict")
        assert plan.lint_report is not None
        assert not plan.lint_report.has_errors


class TestServeLint:
    def test_serve_compile_stamps_windows_and_lints_clean(self):
        from repro.serve.workloads import scoring_workload
        served = scoring_workload(width=8, name="lint-score-w8")
        plan = served.compile(TOY)
        layout = served.layout(TOY)
        sources = [op for op in plan.trace.ops
                   if op.kind is OpKind.SOURCE]
        assert sources
        expected = [[layout.offset(i), layout.width]
                    for i in range(layout.capacity)]
        for op in sources:
            assert op.meta["slot_windows"] == expected
        assert plan.lint_report is not None
        assert not plan.lint_report.has_errors

    def test_corrupted_window_annotation_is_caught(self):
        """The deploy-time lint rejects a batcher/layout contract break."""
        from repro.serve.workloads import scoring_workload
        served = scoring_workload(width=8, name="lint-score-w8-bad")
        plan = served.compile(TOY)
        for op in plan.trace.ops:
            if op.kind is OpKind.SOURCE:
                op.meta["slot_windows"] = [[0, 16], [8, 8]]
        plan.lint_report = None  # force re-analysis
        report = plan.lint()
        assert report.codes().get("HE040")
        with pytest.raises(LintError):
            report.raise_for_errors()


class TestOpMixReport:
    def test_report_carries_the_op_mix_table(self):
        from repro.analysis import analyze_trace
        plan = compile_workload("boot", TOY)
        report = analyze_trace(plan.trace)
        mix = report.op_mix
        assert mix["ops"] == len(plan.trace)
        assert mix["keyswitch_ops"] == len(plan.trace.keyswitch_ops())
        assert set(mix["counts_by_kind"]) <= {k.value for k in OpKind}
        assert mix["level_min"] >= 0
        assert mix["level_max"] <= TOY.max_level
        assert mix["hoists"] == len(galois_groups(plan.trace)) \
            + mix["counts_by_kind"].get("rotate_add", 0) > 0

    def test_boot_hoists_its_stages_and_the_evalmod_pair(self):
        """At paper parameters: eight BSGS stages and EvalMod's two
        conjugations of one value, nine Decomp+ModUp stages in all."""
        from repro.analysis import analyze_trace
        plan = compile_workload("boot", CkksParameters.paper())
        assert analyze_trace(plan.trace).op_mix["hoists"] == 9

    def test_opmix_harness_runs_the_catalog(self):
        from repro.experiments import opmix
        result = opmix.run(params_name="test")
        assert set(result) == set(workload_names())
        for payload in result.values():
            assert payload["errors"] == 0
            assert payload["op_mix"]["ops"] > 0


def test_lint_does_not_perturb_plan_results():
    """Linting is observation only: same plan, same simulated cycles."""
    from repro.gme.features import GME_FULL
    plain = compile_workload("boot", TOY)
    linted = engine.compile("boot", TOY, lint="strict")
    assert linted is plain  # memoized plan object, now carrying a report
    assert np.isfinite(plain.simulate(GME_FULL).cycles)
