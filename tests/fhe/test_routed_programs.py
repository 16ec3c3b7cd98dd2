"""Polynomial evaluation and the BSGS transform compute through the rows.

``repro.fhe.polyval`` and ``repro.fhe.linear`` compute on a ciphertext
only through evaluator methods, i.e. rows of ``repro.trace.ops.OPS``:
so a recording of any of their functions has exactly one ``SOURCE``
(the input), its plan replays to the direct call's bits and lints
clean (but for ``pw54``'s scale drift), and the same recording on the
shape-only evaluator carrying a real encoder is the real one row for
row and payload for payload.

``PARENT_DIGESTS`` holds each function's output bits (limbs, level and
scale label) as they were before the routing; ``RELABELLED`` names the
one output whose label, not limbs, moved since.  Re-pin only
deliberately, by running this very file, which prints the table.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro import engine
from repro.fhe import CkksContext, CkksParameters
from repro.fhe.encoder import CkksEncoder
from repro.fhe.linear import LinearTransform, multiply_by_i
from repro.fhe.polyval import (evaluate_chebyshev, evaluate_polynomial,
                               match_scale_level, normalize_group)
from repro.trace import SymbolicEvaluator, TracingEvaluator
from repro.trace.ir import OpKind

from test_parent_digests import PRESETS, _digest

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

PARENT_DIGESTS = {
    ('chebyshev', 'pw54'):
        'ff07b492ac9d04f2a5d5cbe1218b9303c7334088f42179e61d0fa013e5a56e06',
    ('chebyshev', 'toy'):
        '05164fa841b42df988718d33bce2455c260e39a0807e826738d8807f5caf6649',
    ('dense', 'pw54'):
        '4c657db66cb3e5747f304aab6870421050eb6065c19191130c9cb3820dbdb051',
    ('dense', 'toy'):
        '344c7ef53fabc567d60e14505032dde019db2d3379b2d3ae0b8d47dfa9cc33c3',
    ('match_scale_level', 'pw54'):
        '341b3776a0cbc8e114ae85fc365e426c622cf3c1574c6918cf25b26bb0a32fea',
    ('match_scale_level', 'toy'):
        '73065da641fe971d94dd17645c00933b8d65a3ab085d0347835f36c06e449fde',
    ('multiply_by_i', 'pw54'):
        '1886ca5650f52c56ca7c6de59e244ceab5114459081210baac11651d8beb1280',
    ('multiply_by_i', 'toy'):
        '870d6ab79205db9be73356aa74feaeb3c35ad8abc8aa8725a22bd3111a87b8a8',
    ('normalize_group', 'pw54'):
        'f3c6dca821d2632278079e838130154ccb6a1d0e5f112bc12b8077b79a7c8b66',
    ('normalize_group', 'toy'):
        '0687f2b60290018844945e35f121bf081e6fcf6a1a4b723c70d3f53b36e4a4f0',
    ('polynomial', 'pw54'):
        '5931f78558f69e3b4e8c5885e603422497e685c3c475091bd6af9602491befc7',
    ('polynomial', 'toy'):
        '0f83a84c9b103555606b026132439c0e8603d0673c9ffabb8e7d48282e7f89cb',
    ('zero', 'pw54'):
        '707bf6be25f55d8fb61e374392d48972d954c1d199202355b295ba326a2e1130',
    ('zero', 'toy'):
        '96ad5686bc76b9ec8532eac23b479320e139650c95529c1623fdf40f9c3c78d6',
}


def _context(preset: str) -> CkksContext:
    return CkksContext(PRESETS[preset](), seed=61)


def _input(ctx: CkksContext):
    values = np.random.default_rng(8).uniform(-1.0, 1.0,
                                              ctx.params.num_slots)
    return ctx.encrypt(values)


def _direct(name: str, preset: str):
    ctx = _context(preset)
    out = PROGRAMS[name](ctx.evaluator, _input(ctx))
    return out if isinstance(out, list) else [out]


#: Outputs whose limbs are the parent's but whose scale label is not:
#: ``he_add`` labels its result with the larger operand scale (the
#: row's ``MAX_SCALE``) where it took the first operand's.  At ``toy``
#: the sigmoid's last sum adds two scales 8.8e-10 apart, larger second:
#: (parent label, label now).
RELABELLED = {("polynomial", "toy"): (536584291.3153759, 536584291.7873071)}


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_the_output_bits_are_the_parents(name, preset):
    out = _direct(name, preset)
    if (name, preset) in RELABELLED:
        parent, now = RELABELLED[name, preset]
        assert [ct.scale for ct in out] == [now]
        out = [dataclasses.replace(out[0], scale=parent)]
    assert _digest(out) == PARENT_DIGESTS[name, preset]


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


@pytest.mark.parametrize("preset", sorted(PRESETS))
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


if __name__ == "__main__":
    for name in sorted(PROGRAMS):
        for preset in sorted(PRESETS):
            print(f"    ({name!r}, {preset!r}):\n"
                  f"        {_digest(_direct(name, preset))!r},")
