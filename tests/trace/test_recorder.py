"""Recorder tests: real-evaluator hooks, identity data flow, speed."""

import time

import numpy as np
import pytest

from repro import engine
from repro.fhe import CkksContext
from repro.fhe.params import CkksParameters
from repro.trace import (OpKind, SymbolicEvaluator, TracingEvaluator)
from repro.trace.ops import galois_groups
from repro.workloads.programs import bootstrap_program


@pytest.fixture(scope="module")
def ctx():
    return CkksContext.toy(seed=11)


def _kinds(trace):
    return [op.kind for op in trace.ops]


class TestRealEvaluatorTracing:
    def test_ops_recorded_with_dataflow(self, ctx):
        tev = TracingEvaluator(ctx.evaluator, name="t")
        ct = ctx.encrypt(np.arange(8) / 8)
        prod = tev.he_mult(ct, ct)
        rot = tev.he_rotate(prod, 3)
        tev.he_add(rot, prod)
        kinds = _kinds(tev.trace)
        assert kinds == [OpKind.SOURCE, OpKind.HE_MULT, OpKind.RESCALE,
                         OpKind.HE_ROTATE, OpKind.HE_ADD]
        mult, rescale, rot_op, add = tev.trace.ops[1:]
        assert mult.inputs == (0, 0)           # both operands = source
        assert rescale.inputs == (1,)
        assert rot_op.inputs == (2,)
        assert add.inputs == (3, 2)
        assert rot_op.key == "rot-3"
        assert rot_op.meta["rotation"] == 3
        assert mult.key == "relin"
        assert mult.meta["dnum"] == ctx.params.dnum

    def test_tracing_is_transparent_to_results(self, ctx):
        """Traced execution returns the exact same ciphertext values."""
        values = np.arange(8) / 10
        plain_ev = ctx.evaluator
        traced_ev = TracingEvaluator(ctx.evaluator)
        ct = ctx.encrypt(values)
        expected = ctx.decrypt(plain_ev.he_rotate(
            plain_ev.he_mult(ct, ct), 2))
        got = ctx.decrypt(traced_ev.he_rotate(
            traced_ev.he_mult(ct, ct), 2))
        assert np.allclose(got, expected)

    def test_source_dedup(self, ctx):
        tev = TracingEvaluator(ctx.evaluator)
        ct = ctx.encrypt([0.1] * 4)
        tev.he_add(ct, ct)
        tev.he_mult(ct, ct)
        assert _kinds(tev.trace).count(OpKind.SOURCE) == 1

    def test_levels_recorded(self, ctx):
        tev = TracingEvaluator(ctx.evaluator)
        ct = ctx.encrypt([0.5] * 4)
        out = tev.he_mult(ct, ct)               # implicit rescale
        mult, rescale = tev.trace.ops[-2:]
        assert mult.level == mult.out_level == rescale.level == ct.level
        assert rescale.out_level == out.level == ct.level - 1
        assert rescale.out_scale == out.scale
        assert mult.out_scale == out.scale * ctx.params.moduli[ct.level]
        assert "rescaled" not in mult.meta

    def test_hoisted_batch_shares_group_and_matches_sequential(self, ctx):
        tev = TracingEvaluator(ctx.evaluator)
        ct = ctx.encrypt(np.arange(6) / 6)
        rotated = tev.hoisted_rotations(ct, [0, 1, 2])
        rots = [op for op in tev.trace.ops
                if op.kind is OpKind.HE_ROTATE]
        assert len(rots) == 2
        # the group is the data flow: both rotations read the one value
        assert galois_groups(tev.trace) == {0: tuple(
            op.op_id for op in rots)}
        assert all(op.meta == {"rotation": op.meta["rotation"],
                               "dnum": ctx.params.dnum,
                               "digits": ctx.params.digits_at(op.level)}
                   for op in rots)
        assert [op for op in tev.trace.ops
                if op.kind is OpKind.COPY]      # the rotation-by-0
        # Bit-exactness with the untraced sequential path.
        for amount in (1, 2):
            expected = ctx.decrypt(ctx.evaluator.he_rotate(ct, amount))
            assert np.allclose(ctx.decrypt(rotated[amount]), expected)

    def test_region_labels(self, ctx):
        tev = TracingEvaluator(ctx.evaluator)
        ct = ctx.encrypt([0.2] * 4)
        with tev.region("outer"):
            with tev.region("inner"):
                tev.he_add(ct, ct)
        assert tev.trace.ops[-1].region == "outer/inner"

    def test_keyswitch_helpers(self, ctx):
        tev = TracingEvaluator(ctx.evaluator)
        ct = ctx.encrypt([0.2] * 4)
        tev.he_rotate(ct, 1)
        tev.he_conjugate(ct)
        assert tev.trace.keys_used() == {"rot-1", "conj"}
        assert len(tev.trace.keyswitch_ops()) == 2


class TestRescaleRecording:
    """A ``rescale=True`` call is one call to the evaluator, recorded as
    what it computes: the product and a ``RESCALE`` of it."""

    @pytest.fixture()
    def sym(self):
        return TracingEvaluator(SymbolicEvaluator(CkksParameters.toy()))

    def test_a_rescaled_call_is_its_product_and_a_rescale(self, sym):
        ct = sym.fresh(level=4)
        out = sym.he_mult(ct, ct, rescale=True)
        assert _kinds(sym.trace) == [OpKind.SOURCE, OpKind.HE_MULT,
                                     OpKind.RESCALE]
        mult, rescale = sym.trace.ops[1:]
        assert "rescaled" not in mult.meta
        assert mult.level == mult.out_level == 4
        assert rescale.inputs == (mult.op_id,)
        assert rescale.level == 4 and rescale.out_level == 3 == out.level
        assert rescale.out_scale == out.scale
        assert rescale.key is None and rescale.meta == {}

    def test_consumers_read_the_rescale(self, sym):
        ct = sym.fresh(level=4)
        with sym.region("r"):
            prod = sym.he_mult(ct, ct, rescale=True)
        sym.he_rotate(prod, 1)
        rot = sym.trace.ops[-1]
        assert rot.kind is OpKind.HE_ROTATE
        assert sym.trace.ops[rot.inputs[0]].kind is OpKind.RESCALE
        assert [op.region for op in sym.trace.ops[1:3]] == ["r", "r"]

    def test_the_payload_stays_on_the_product(self, sym):
        ct = sym.fresh(level=4)
        sym.poly_mult(ct, sym.plaintext(), rescale=True)
        (payload_id,) = sym.trace.payloads
        assert sym.trace.ops[payload_id].kind is OpKind.POLY_MULT

    def test_an_explicit_rescale_is_recorded_as_written(self, sym):
        ct = sym.fresh(level=4)
        sym.rescale(sym.he_square(ct, rescale=False))
        assert _kinds(sym.trace) == [OpKind.SOURCE, OpKind.HE_SQUARE,
                                     OpKind.RESCALE]
        assert sym.trace.ops[1].meta["rescaled"] is False

    def test_the_output_is_the_rescale(self):
        plan = engine.compile(
            lambda ev: ev.scalar_mult(ev.fresh(level=4), 0.5),
            CkksParameters.toy(), name="scaled")
        assert _kinds(plan.trace) == [OpKind.SOURCE, OpKind.SCALAR_MULT,
                                      OpKind.RESCALE]
        assert plan.trace.output_op_id == 2


class TestSymbolicTracingSpeed:
    def test_paper_scale_bootstrap_traces_fast(self):
        """Acceptance: symbolic paper-scale bootstrap in well under 5s."""
        params = CkksParameters.paper()
        start = time.perf_counter()
        tev = TracingEvaluator(SymbolicEvaluator(params), name="boot")
        with tev.region("boot"):
            bootstrap_program(tev, tev.fresh(level=0))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert len(tev.trace) > 300
        counts = tev.trace.counts_by_kind()
        assert counts[OpKind.MOD_RAISE] == 1
        assert len(galois_groups(tev.trace)) \
            == 2 * params.fft_iterations + 1     # + EvalMod's conjugations
