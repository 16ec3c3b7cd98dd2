"""The op table is complete, agrees with every evaluator's surface and
with the real evaluator's levels and scales, closes the arity /
missing-operand hole, and is what the README prints."""

import copy
import pathlib
import pickle

import pytest

import repro.trace
from repro import engine
from repro.analysis import LintError, lint_trace
from repro.blocksim.blocks import BlockType
from repro.fhe import CkksContext, CkksParameters
from repro.fhe.evaluator import CkksEvaluator
from repro.trace import (SymbolicEvaluator, TraceValidationError,
                         TracingEvaluator, validate_trace)
from repro.trace.ir import OpKind, OpTrace, TraceOp
from repro.trace.ops import (OPS, SCALE_TOLERANCE, expected_out_level,
                             out_scale, render_table)

TOY = CkksParameters.toy()
DELTA = TOY.scale

WITH_METHOD = [spec for spec in OPS.values() if spec.method is not None]


# -- completeness and surface agreement ---------------------------------------

def test_one_row_per_kind():
    assert set(OPS) == set(OpKind)
    assert all(spec.kind is kind for kind, spec in OPS.items())
    assert [kind for kind in OPS] == list(OpKind)


@pytest.mark.parametrize("kinds", [OpKind, BlockType],
                         ids=lambda kinds: kinds.__name__)
def test_a_kind_hashes_by_identity_and_round_trips_to_itself(kinds):
    """``OPS[op.kind]`` and a run's priced cases hash a kind per op: by
    identity, not by ``Enum.__hash__`` in Python.  A member is a
    singleton, so a pickle or copy round trip hands back the member that
    keys the table."""
    assert kinds.__hash__ is object.__hash__
    for kind in kinds:
        assert hash(kind) == object.__hash__(kind)
        for twin in (pickle.loads(pickle.dumps(kind)), copy.copy(kind),
                     copy.deepcopy(kind), kinds(kind.value)):
            assert twin is kind
            assert {kind: True}[twin]
    assert len({*kinds, *kinds}) == len(kinds)


@pytest.mark.parametrize("spec", WITH_METHOD, ids=lambda s: s.kind.value)
def test_every_method_exists_where_the_table_says(spec):
    assert callable(getattr(SymbolicEvaluator, spec.method))
    assert callable(getattr(TracingEvaluator, spec.method))
    assert hasattr(CkksEvaluator, spec.method) == spec.real


def test_rows_without_a_method_need_no_evaluator():
    assert {spec.kind for spec in OPS.values() if spec.method is None} \
        == {OpKind.SOURCE, OpKind.COPY}


def test_plumbing_is_the_rows_without_a_block():
    plumbing = {kind for kind, spec in OPS.items() if spec.block is None}
    assert plumbing == {OpKind.SOURCE, OpKind.MOD_DROP, OpKind.COPY,
                        OpKind.REFRESH}
    assert all(spec.stem for spec in OPS.values() if spec.block)


def test_generated_methods_bind_like_the_hand_written_ones():
    """Positional or keyword operands, ``rescale=True`` and ``levels=1``
    by default, ``TypeError`` for anything else."""
    ev = SymbolicEvaluator(TOY)
    ct = ev.fresh(level=4)
    assert ev.he_mult(ct, ct).level == 3
    assert ev.he_mult(ct, ct, False).level == 4
    assert ev.he_mult(ct, ct, rescale=False).level == 4
    assert ev.scalar_mult(ct, value=0.5, rescale=False).level == 4
    assert ev.mod_drop(ct).level == 3
    assert ev.mod_drop(ct, levels=2).level == 2
    assert ev.mod_drop(ct, 0).level == 4
    assert SymbolicEvaluator.he_mult.__name__ == "he_mult"
    for bad in (lambda: ev.he_mult(ct), lambda: ev.he_add(ct, ct, ct),
                lambda: ev.rescale(ct, rescale=True),
                lambda: ev.scalar_add(ct), lambda: ev.he_rotate(ct, r=1)):
        with pytest.raises(TypeError):
            bad()


# -- symbolic / real agreement, row by row ------------------------------------

@pytest.fixture(scope="module")
def ctx():
    return CkksContext(TOY, seed=5)


def _calls(spec, ct, other, pt):
    """``(args, kwargs)`` of one call per fused-rescale setting."""
    operands = {"value": 0.5 if spec.kind is not OpKind.SCALAR_MULT_INT
                else 3, "rotation": 3, "rotations": [1, 2, 3], "levels": 2}
    args = [ct, other][:spec.arity] \
        + [operands[name] for name in spec.meta_args] \
        + [pt] * spec.payload
    if not spec.fused_rescale:
        return [(args, {})]
    return [(args, {"rescale": True}), (args, {"rescale": False})]


@pytest.mark.parametrize("spec", [s for s in WITH_METHOD if s.real],
                         ids=lambda s: s.kind.value)
def test_symbolic_level_and_scale_are_the_real_ones(spec, ctx):
    real_ev, sym_ev = ctx.evaluator, SymbolicEvaluator(TOY)
    values = [0.25, -0.5, 0.125]
    real_ct = ctx.encrypt(values, level=4)
    real_other = real_ev.mod_drop(ctx.encrypt(values, level=4), 1)
    real_pt = ctx.encoder.encode(values)
    sym_ct, sym_other = sym_ev.fresh(level=4), sym_ev.fresh(level=3)
    sym_pt = sym_ev.plaintext()
    real_calls = _calls(spec, real_ct, real_other, real_pt)
    sym_calls = _calls(spec, sym_ct, sym_other, sym_pt)
    for (r_args, kwargs), (s_args, _) in zip(real_calls, sym_calls):
        real = getattr(real_ev, spec.method)(*r_args, **kwargs)
        sym = getattr(sym_ev, spec.method)(*s_args, **kwargs)
        assert sym.level == real.level
        assert sym.scale == pytest.approx(real.scale, rel=SCALE_TOLERANCE)


@pytest.mark.parametrize(
    "spec", [s for s in WITH_METHOD if s.real and s.arity == 2],
    ids=lambda s: s.kind.value)
def test_a_two_operand_row_labels_its_result_in_either_order(spec, ctx):
    """The real result's level and scale are the row's whichever operand
    comes first: here scales 5e-8 apart (inside ``SCALE_TOLERANCE``,
    26.8 at Delta = 2^29) on levels one apart."""
    ev = ctx.evaluator
    values = [0.25, -0.5, 0.125]
    a = ctx.encrypt(values, level=4)
    b = ev.mod_drop(ctx.encrypt(values, level=4,
                                scale=DELTA * (1 + 5e-8)), 1)
    rescale = OPS[OpKind.RESCALE]
    for x, y in ((a, b), (b, a)):
        level = min(x.level, y.level)
        want_level = expected_out_level(spec, level, {}, TOY.max_level)
        want_scale = out_scale(spec, TOY, level, [x.scale, y.scale])
        flags = {"rescale": False} if spec.fused_rescale else {}
        out = getattr(ev, spec.method)(x, y, **flags)
        assert (out.level, out.scale) == (want_level, want_scale)
        if spec.fused_rescale:
            out = getattr(ev, spec.method)(x, y)
            assert (out.level, out.scale) == (
                expected_out_level(rescale, level, {}, TOY.max_level),
                out_scale(rescale, TOY, level, [want_scale]))


# -- the arity / missing-operand hole ----------------------------------------

def _two_defect_trace() -> OpTrace:
    """A one-input HE_ADD and an HE_ROTATE without ``meta["rotation"]``:
    before the table no site knew an op's arity, so none checked it."""
    trace = OpTrace(params=TOY, name="two-defects")
    trace.append(TraceOp(0, OpKind.SOURCE, (), 4, 4, out_scale=DELTA))
    trace.append(TraceOp(1, OpKind.HE_ADD, (0,), 4, 4, out_scale=DELTA))
    trace.append(TraceOp(2, OpKind.HE_ROTATE, (1,), 4, 4, out_scale=DELTA,
                         key="rot-1"))
    trace.output_op_id = 2
    return trace


def test_a_wrong_input_count_fails_validation():
    with pytest.raises(TraceValidationError, match="he_add op has inputs"):
        validate_trace(_two_defect_trace())


def test_a_wrong_input_count_is_he050():
    assert lint_trace(_two_defect_trace()).codes() == {"HE050": 2}
    with pytest.raises(LintError, match="HE050"):
        engine.compile(_two_defect_trace(), lint="strict")


@pytest.mark.parametrize("kind, key", [(OpKind.HE_ROTATE, "rot-1"),
                                       (OpKind.SCALAR_MULT, None)],
                         ids=["he_rotate", "scalar_mult"])
def test_a_missing_method_operand_is_structural(kind, key):
    """Every ``meta_args`` key is required up front, so the op fails
    validation instead of replay."""
    trace = OpTrace(params=TOY, name="no-operand")
    trace.append(TraceOp(0, OpKind.SOURCE, (), 4, 4, out_scale=DELTA))
    trace.append(TraceOp(1, kind, (0,), 4, 4, out_scale=DELTA, key=key,
                         meta={"rescaled": False}))
    (arg,) = OPS[kind].meta_args
    assert lint_trace(trace).codes() == {"HE050": 1}
    with pytest.raises(TraceValidationError, match=rf"meta\['{arg}'\]"):
        validate_trace(trace)
    with pytest.raises(LintError, match="HE050"):
        engine.compile(trace, lint="strict")


def test_a_plan_cannot_be_built_over_an_op_replay_cannot_apply():
    """The one plan constructor (``engine.compile`` and ``load_plan``
    alike) validates its trace, so replay never meets a wrong input
    count or a missing method operand."""
    with pytest.raises(TraceValidationError,
                       match=r"op 1 \(he_add\): he_add op has inputs"):
        engine.ExecutablePlan(_two_defect_trace(), "defects")
    rotate_only = _two_defect_trace()
    rotate_only.ops[1] = TraceOp(1, OpKind.COPY, (0,), 4, 4,
                                 out_scale=DELTA)
    with pytest.raises(TraceValidationError,
                       match=r"op 2 \(he_rotate\): .*meta\['rotation'\]"):
        engine.ExecutablePlan(rotate_only, "defects")


def test_a_level_rule_missing_its_meta_is_structural():
    trace = OpTrace(params=TOY, name="drop")
    trace.append(TraceOp(0, OpKind.SOURCE, (), 4, 4, out_scale=DELTA))
    trace.append(TraceOp(1, OpKind.MOD_DROP, (0,), 4, 3, out_scale=DELTA))
    assert lint_trace(trace).codes() == {"HE050": 1}
    with pytest.raises(TraceValidationError, match=r"meta\['levels'\]"):
        validate_trace(trace)
    trace.ops[1].meta["levels"] = 1
    assert lint_trace(trace).codes() == {}
    assert validate_trace(trace) is trace


def test_validate_trace_holds_every_kind_to_its_level_rule():
    trace = OpTrace(params=TOY, name="levels")
    trace.append(TraceOp(0, OpKind.SOURCE, (), 4, 4, out_scale=DELTA))
    trace.append(TraceOp(1, OpKind.HE_ADD, (0, 0), 4, 3, out_scale=DELTA))
    with pytest.raises(TraceValidationError,
                       match="he_add 4 -> 3 is not level 4"):
        validate_trace(trace)


# -- docs generated from the definitions --------------------------------------

def test_the_readme_carries_the_rendered_table():
    readme = (pathlib.Path(repro.trace.__file__).parent
              / "README.md").read_text(encoding="utf-8")
    begin, end = "<!-- op-table:begin -->\n", "\n<!-- op-table:end -->"
    checked_in = readme[readme.index(begin) + len(begin):readme.index(end)]
    assert checked_in == render_table()
    assert len(render_table().splitlines()) == len(OPS) + 2
