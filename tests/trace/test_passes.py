"""Trace validation: the one check between recording and lowering."""

import pytest

from repro.fhe.params import CkksParameters
from repro.trace import (OpKind, SymbolicEvaluator, TraceValidationError,
                         TracingEvaluator, validate_trace)
from repro.trace.ir import TraceOp
from repro.trace.ops import schedule


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

    def test_a_hoisted_handle_may_be_rotated_or_copied(self, sym):
        """A batch is plain ops on one value — a copy for amount 0 — and
        another Galois op of the value joins its group."""
        ct = sym.fresh(level=4)
        sym.hoisted_rotations(ct, [0, 1, 2])
        sym.he_conjugate(ct)
        assert validate_trace(sym.trace) is sym.trace
        assert _kinds(sym.trace) == [OpKind.SOURCE, OpKind.COPY,
                                     OpKind.HE_ROTATE, OpKind.HE_ROTATE,
                                     OpKind.CONJUGATE]
        assert schedule(sym.trace).galois_groups == {0: (2, 3, 4)}

    def test_a_product_and_its_rescale_in_one_op_are_rejected(self, sym):
        """The one-op form an old recorder wrote: a product that lands a
        level down breaks the product's same-level rule."""
        ct = sym.fresh(level=4)
        sym.he_square(ct, rescale=False)
        product = sym.trace.ops[-1]
        product.out_level, product.meta["rescaled"] = 3, True
        with pytest.raises(TraceValidationError, match="is not level 4"):
            validate_trace(sym.trace)

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


class TestPipeline:
    """Compiling is record -> validate -> lower: validation holds each
    op to its row's level rule."""

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
