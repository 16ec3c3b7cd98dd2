"""Polynomial evaluation and the BSGS transform compute through the rows.

``repro.fhe.polyval`` and ``repro.fhe.linear`` compute on a ciphertext
only through evaluator methods, i.e. rows of ``repro.trace.ops.OPS``:
so a recording of any of their functions has exactly one ``SOURCE``
(the input), its plan replays to the direct call's bits and lints
clean (but for ``pw54``'s scale drift), and the same recording on the
shape-only evaluator carrying a real encoder is the real one row for
row and payload for payload.

Family ``routed`` of ``tests/pins.json`` holds each function's output
bits (limbs, level and scale label), on keys and an input from the
sampler-free fixture (``pins.fixture``).  Re-pin only deliberately:
``PYTHONPATH=src python -m tests.pins --record``.
"""

import functools

import numpy as np
import pytest

import pins
from repro import engine
from repro.fhe import CkksContext
from repro.fhe.encoder import CkksEncoder
from repro.fhe.linear import LinearTransform, multiply_by_i
from repro.fhe.polyval import (evaluate_chebyshev, evaluate_polynomial,
                               match_scale_level, normalize_group)
from repro.trace import SymbolicEvaluator, TracingEvaluator
from repro.trace.ir import OpKind

#: The HE-LR sigmoid: four power-basis coefficients.
SIGMOID = [0.5, 0.15012, 0.0, -0.0015930]
#: cos on [-1, 1] in the Chebyshev basis, degree 4: five coefficients,
#: the odd ones zero to rounding, so T_3 is never made.
COS4 = [float(c) for c in
        np.polynomial.chebyshev.Chebyshev.interpolate(np.cos, 4).coef]


@functools.cache
def _dense(n: int) -> np.ndarray:
    """A random n x n matrix, about 10 % of it non-zero: every diagonal
    is non-zero, so every baby and giant step runs."""
    rng = np.random.default_rng(11)
    return rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.1)


def _slots(ev) -> int:
    return ev.params.num_slots


#: Each routed function as ``program(ev, ct)``; a list is a group.
PROGRAMS = {
    "polynomial": lambda ev, ct: evaluate_polynomial(ev, ct, SIGMOID),
    "chebyshev": lambda ev, ct: evaluate_chebyshev(ev, ct, COS4),
    "dense": lambda ev, ct: LinearTransform(
        ev, _dense(_slots(ev))).apply(ct),
    "zero": lambda ev, ct: LinearTransform(
        ev, np.zeros((_slots(ev), _slots(ev)))).apply(ct),
    "multiply_by_i": lambda ev, ct: multiply_by_i(ev, multiply_by_i(ev, ct)),
    "normalize_group": lambda ev, ct: normalize_group(
        ev, [ct, ev.he_square(ct)]),
    "match_scale_level": lambda ev, ct: match_scale_level(
        ev, ct, ct.level - 1, ct.scale * 1.37),
}


def _context(preset: str, tag: str = "routed") -> CkksContext:
    return pins.fixture(pins.PRESETS[preset](), tag)


def _input(ctx: CkksContext):
    values = np.random.default_rng(8).uniform(-1.0, 1.0,
                                              ctx.params.num_slots)
    return ctx.encrypt(values)


def _direct(name: str, preset: str):
    ctx = _context(preset, pins.pin_id("routed", name, preset))
    out = PROGRAMS[name](ctx.evaluator, _input(ctx))
    return out if isinstance(out, list) else [out]


@pins.family("routed", [(name, preset) for name in PROGRAMS
                        for preset in pins.PRESETS])
def routed_digest(name: str, preset: str) -> str:
    return pins.ct_digest(_direct(name, preset))


@pytest.mark.parametrize("preset", sorted(pins.PRESETS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_the_output_bits_are_the_parents(name, preset):
    assert routed_digest(name, preset) \
        == pins.expected("routed", name, preset)


def _program(name: str):
    """``PROGRAMS[name]`` as a one-output program: a group is summed."""
    def program(ev, ct):
        out = PROGRAMS[name](ev, ct)
        return ev.he_add(*out) if isinstance(out, list) else out
    return program


def _rows(plan: engine.ExecutablePlan) -> list[tuple]:
    return [(op.op_id, op.kind, op.inputs, op.level, op.out_level,
             op.out_scale, op.key, op.region, op.meta)
            for op in plan.trace.ops]


def _payloads(plan: engine.ExecutablePlan) -> dict[int, tuple]:
    return {op_id: (np.asarray(pt.coeffs).tolist(), pt.scale, pt.num_slots)
            for op_id, pt in plan.trace.payloads.items()}


@pytest.mark.parametrize("preset", sorted(pins.PRESETS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestRecording:
    def _real(self, name, preset):
        ctx = _context(preset)
        ct = _input(ctx)
        program = _program(name)
        plan = engine.compile(lambda ev: program(ev, ct), context=ctx,
                              name=name)
        return ctx, ct, program, plan

    def test_one_source_a_clean_lint_and_the_direct_bits(self, name,
                                                         preset):
        ctx, ct, program, plan = self._real(name, preset)
        kinds = [op.kind for op in plan.trace.ops]
        assert kinds.count(OpKind.SOURCE) == 1 and len(kinds) > 1
        # pw54 rescales Delta = 2^50 by 54-bit primes: each product's
        # rescale drifts ~4 bits, which HE110 reports, and nothing else.
        drift = {"HE110"} if preset == "pw54" else set()
        assert set(plan.lint().codes()) - drift == set()
        replayed = plan.execute(ctx, sources=[ct]).output
        assert engine.bit_identical(replayed, program(ctx.evaluator, ct))

    def test_the_symbolic_recording_is_the_real_one(self, name, preset):
        ctx, ct, program, plan = self._real(name, preset)
        params = ctx.params
        recorder = TracingEvaluator(
            SymbolicEvaluator(params, encoder=CkksEncoder(params)),
            name=name)
        out = program(recorder, recorder.fresh(ct.level, ct.scale))
        recorder.trace.output_op_id = recorder.producer_of(out)
        symbolic = engine.compile(recorder.trace)
        assert _rows(symbolic) == _rows(plan)
        assert _payloads(symbolic) == _payloads(plan)
        assert symbolic.trace.output_op_id == plan.trace.output_op_id

