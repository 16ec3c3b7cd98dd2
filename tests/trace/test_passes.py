"""Trace pass pipeline: validation and rescale expansion."""

import pytest

from repro.fhe.params import CkksParameters
from repro.trace import (DEFAULT_PASSES, OpKind, SymbolicEvaluator,
                         TraceValidationError, TracingEvaluator,
                         expand_implicit_rescales, run_passes,
                         validate_trace)
from repro.trace.ir import TraceOp


@pytest.fixture()
def sym():
    return TracingEvaluator(SymbolicEvaluator(CkksParameters.toy()))


def _kinds(trace):
    return [op.kind for op in trace.ops]


class TestValidateTrace:
    def test_healthy_trace_passes_unchanged(self, sym):
        ct = sym.fresh(level=4)
        sym.he_mult(ct, ct, rescale=True)
        assert validate_trace(sym.trace) is sym.trace

    def test_forward_reference_rejected(self, sym):
        ct = sym.fresh(level=4)
        sym.he_square(ct, rescale=False)
        sym.trace.ops[1].inputs = (5,)
        with pytest.raises(TraceValidationError, match="earlier op"):
            validate_trace(sym.trace)

    def test_a_hoisted_handle_feeds_only_a_hoisted_method(self, sym):
        """A ``hoist`` output is a handle, not a ciphertext: an
        ``he_add`` of it would fail at replay, so it does not compile."""
        ct = sym.fresh(level=4)
        hoisted = sym.hoist(ct)
        sym.he_add(hoisted, ct)
        with pytest.raises(TraceValidationError,
                           match="input 1 is a hoisted handle; he_add"):
            validate_trace(sym.trace)

    def test_a_hoisted_handle_may_be_rotated_or_copied(self, sym):
        ct = sym.fresh(level=4)
        sym.hoisted_rotations(ct, [0, 1, 2])
        sym.conjugate_hoisted(sym.hoist(ct))
        sym.rotate_hoisted(sym.hoist(ct), 0)
        assert validate_trace(sym.trace) is sym.trace

    def test_level_out_of_range_rejected(self, sym):
        sym.he_square(sym.fresh(level=2), rescale=False)
        sym.trace.ops[0].level = 99
        with pytest.raises(TraceValidationError, match="outside"):
            validate_trace(sym.trace)

    def test_keyswitch_without_key_rejected(self, sym):
        ct = sym.fresh(level=4)
        sym.he_rotate(ct, 3)
        sym.trace.ops[-1].key = None
        with pytest.raises(TraceValidationError, match="without a key"):
            validate_trace(sym.trace)


class TestExpandImplicitRescales:
    def test_fused_op_splits_into_op_plus_rescale(self, sym):
        ct = sym.fresh(level=4)
        sym.he_mult(ct, ct, rescale=True)
        out = expand_implicit_rescales(sym.trace)
        assert _kinds(out) == [OpKind.SOURCE, OpKind.HE_MULT,
                               OpKind.RESCALE]
        mult, rescale = out.ops[1], out.ops[2]
        assert "rescaled" not in mult.meta
        assert mult.out_level == 4
        assert rescale.inputs == (mult.op_id,)
        assert rescale.level == 4 and rescale.out_level == 3

    def test_consumers_follow_the_rescale(self, sym):
        ct = sym.fresh(level=4)
        prod = sym.he_mult(ct, ct, rescale=True)
        sym.he_rotate(prod, 1)
        out = expand_implicit_rescales(sym.trace)
        rot = out.ops[-1]
        assert rot.kind is OpKind.HE_ROTATE
        assert out.ops[rot.inputs[0]].kind is OpKind.RESCALE

    def test_idempotent(self, sym):
        ct = sym.fresh(level=4)
        sym.he_mult(ct, ct, rescale=True)
        once = expand_implicit_rescales(sym.trace)
        assert expand_implicit_rescales(once) is once

    def test_payloads_follow_their_ops(self, sym):
        ct = sym.fresh(level=4)
        sym.poly_mult(ct, sym.plaintext(), rescale=True)
        out = expand_implicit_rescales(sym.trace)
        (payload_id,) = out.payloads
        assert out.ops[payload_id].kind is OpKind.POLY_MULT

    def test_explicit_rescales_untouched(self, sym):
        ct = sym.fresh(level=4)
        a = sym.he_square(ct, rescale=False)
        sym.rescale(a)
        out = expand_implicit_rescales(sym.trace)
        assert out is sym.trace


class TestPipeline:
    def test_default_pipeline_runs_in_order(self, sym):
        """Rescales are expanded; two rotations of one ciphertext stay
        two plain rotations of it: no pass adds a hoist."""
        ct = sym.fresh(level=4)
        sym.he_mult(ct, ct, rescale=True)
        sym.he_rotate(ct, 1)
        sym.he_rotate(ct, 2)
        out = run_passes(sym.trace, DEFAULT_PASSES)
        kinds = _kinds(out)
        assert OpKind.RESCALE in kinds and OpKind.HOIST not in kinds
        rotations = [op for op in out.ops
                     if op.kind is OpKind.HE_ROTATE]
        assert [(op.inputs, op.meta) for op in rotations] \
            == [(op.inputs, op.meta) for op in sym.trace.ops
                if op.kind is OpKind.HE_ROTATE]

    def test_empty_pipeline_is_identity(self, sym):
        sym.fresh(level=2)
        assert run_passes(sym.trace, ()) is sym.trace

    def test_validation_passes_on_expanded_trace(self, sym):
        ct = sym.fresh(level=4)
        sym.scalar_mult(ct, 0.5, rescale=True)
        out = run_passes(sym.trace, DEFAULT_PASSES)
        assert validate_trace(out) is out

    def test_rescale_shape_checked(self):
        params = CkksParameters.toy()
        from repro.trace import OpTrace
        trace = OpTrace(params=params)
        trace.append(TraceOp(op_id=0, kind=OpKind.SOURCE, inputs=(),
                             level=4, out_level=4))
        trace.append(TraceOp(op_id=1, kind=OpKind.RESCALE, inputs=(0,),
                             level=4, out_level=4))
        with pytest.raises(TraceValidationError, match="not one level"):
            validate_trace(trace)
