"""One refusal rule per op: ``repro.trace.ops.check``.

Each row of the table below is a rule and a call it refuses.  The real
evaluator, the symbolic evaluator and the linter must refuse it alike:
the same :class:`~repro.trace.ops.Refusal` code and the same message,
the linter on the trace the call records when nothing refuses it.  So a
plan that lints clean of these codes runs these ops.
"""

import numpy as np
import pytest

from repro.analysis import lint_trace
from repro.fhe import CkksContext, CkksParameters
from repro.serve import ServedWorkload
from repro.trace import SymbolicEvaluator, TracingEvaluator, symbolic
from repro.trace.ops import Refusal

TOY = CkksParameters.toy()
VALUES = np.linspace(-0.5, 0.5, TOY.num_slots)


def _degree_two(ev, x):
    return ev.he_square(x, rescale=False, relinearize=False)


#: ``row: (code, source level, bad call over (evaluator, source))``.
ROWS = {
    "he023-he_add": ("HE023", 3, lambda ev, x: ev.he_add(
        _degree_two(ev, x), x)),
    "he023-mod_drop": ("HE023", 3, lambda ev, x: ev.mod_drop(
        _degree_two(ev, x))),
    "he023-he_rotate": ("HE023", 3, lambda ev, x: ev.he_rotate(
        ev.he_square(x, relinearize=False), 1)),
    "he023-rotate_add": ("HE023", 3, lambda ev, x: ev.rotate_add(
        ev.he_square(x, relinearize=False), [1, 2, 3])),
    "he001-rescale": ("HE001", 0, lambda ev, x: ev.rescale(x)),
    "he001-he_mult": ("HE001", 0, lambda ev, x: ev.he_mult(x, x)),
    "he001-scalar_mult": ("HE001", 0, lambda ev, x: ev.scalar_mult(x, 0.5)),
    "he001-mod_drop": ("HE001", 1, lambda ev, x: ev.mod_drop(x, 2)),
    # Delta vs Delta^2 / q_3: a drift of 1e-4, not a missing rescale.
    "he011-drift": ("HE011", 3, lambda ev, x: ev.he_add(
        ev.mod_drop(x, 1), ev.he_square(x))),
    "he011-he_sub": ("HE011", 3, lambda ev, x: ev.he_sub(
        ev.he_square(x), ev.mod_drop(x, 1))),
    "he011-poly_add": ("HE011", 3, lambda ev, x: ev.poly_add(
        x, ev.encoder.encode(VALUES, 2 * ev.params.scale))),
    "he020-rotate_add-empty": ("HE020", 3, lambda ev, x: ev.rotate_add(
        x, [])),
    "he020-rotate_add-zero": ("HE020", 3, lambda ev, x: ev.rotate_add(
        x, [0])),
    "he020-rotate_add-wrapped": ("HE020", 3, lambda ev, x: ev.rotate_add(
        x, [1, TOY.num_slots])),
}


def _refusal(call) -> tuple[str, str]:
    with pytest.raises(Refusal) as refused:
        call()
    return refused.value.code, str(refused.value)


@pytest.fixture(scope="module")
def ctx():
    return CkksContext(TOY, seed=3)


def _bare_trace(bad, level, monkeypatch):
    """The trace ``bad`` records with the symbolic check switched off:
    what a recorder would write had nothing refused the call."""
    with monkeypatch.context() as patch:
        patch.setattr(symbolic, "check", lambda *args: None)
        recorder = TracingEvaluator(SymbolicEvaluator(TOY), name="bare")
        out = bad(recorder, recorder.fresh(level=level))
    recorder.trace.output_op_id = recorder.producer_of(out)
    return recorder.trace


@pytest.mark.parametrize("row", sorted(ROWS))
def test_each_rule_refuses_alike_on_both_evaluators_and_in_the_linter(
        row, ctx, monkeypatch):
    code, level, bad = ROWS[row]
    real = _refusal(lambda: bad(ctx.evaluator,
                                ctx.encrypt(VALUES, level=level)))
    sym = SymbolicEvaluator(TOY)
    assert _refusal(lambda: bad(sym, sym.fresh(level=level))) == real
    assert real[0] == code
    trace = _bare_trace(bad, level, monkeypatch)
    report = lint_trace(trace)
    assert [(finding.code, finding.message) for finding in report.errors
            if finding.op_id == trace.output_op_id] == [real]


@pytest.mark.parametrize("row", sorted(ROWS))
def test_a_served_compile_refuses_as_the_real_evaluator(row, ctx):
    """The deploy compile records on the symbolic evaluator with a real
    encoder: a served program the real evaluator refuses never becomes
    a plan."""
    _, level, bad = ROWS[row]

    def build(layout):
        return lambda ev, ct: bad(ev, ev.mod_drop(ct, ct.level - level))

    workload = ServedWorkload(name=row, width=16, build_program=build)
    real = _refusal(lambda: build(None)(
        ctx.evaluator, ctx.encrypt(VALUES)))
    assert _refusal(lambda: workload.compile(TOY)) == real


def test_a_declared_region_is_exempt_from_the_scale_rule_only_symbolically(
        ctx):
    """``rescale=False`` declares that the program manages the scale
    itself, as the catalog's schematic programs do: the symbolic
    evaluator and the linter let its additions pair unequal scales.  A
    real ciphertext declares nothing, so the real evaluator still
    refuses them."""
    def program(ev, x):
        return ev.he_add(x, ev.scalar_mult(x, 1.0, rescale=False))

    sym = SymbolicEvaluator(TOY)
    assert program(sym, sym.fresh(level=3)).manual_scale
    recorder = TracingEvaluator(SymbolicEvaluator(TOY), name="declared")
    recorder.trace.output_op_id = recorder.producer_of(
        program(recorder, recorder.fresh(level=3)))
    assert lint_trace(recorder.trace).codes() == {}
    code, message = _refusal(lambda: program(
        ctx.evaluator, ctx.encrypt(VALUES, level=3)))
    assert code == "HE011" and message.startswith("scale mismatch")
