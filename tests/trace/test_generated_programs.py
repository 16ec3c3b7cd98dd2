"""Generated evaluator programs: record -> compile -> execute is
bit-identical to calling the evaluator, and what the op table calls
well-typed lints without an error.

The strategy does not know any op: it walks ``repro.trace.ops.OPS``.  A
step is any row that replays on a real evaluator, applied to values the
program already holds, and it is kept when the table-driven
``SymbolicEvaluator`` accepts it (``repro.trace.ops.check``, the real
evaluator's own refusals) and the table's level and scale rules land
inside the modulus chain.  Sometimes the step is a fan-out instead:
two or three Galois ops of one value the program holds, which replay
hoists as one group (``repro.trace.ops.galois_groups``).  The real
``CkksEvaluator`` is then held to what the walk promised, value by
value.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import engine
from repro.fhe import CkksContext, CkksParameters
from repro.fhe.noise import NOISE_FLOOR_LOG2
from repro.trace import (SymbolicCiphertext, SymbolicEvaluator,
                         TracingEvaluator)
from repro.trace.ops import OPS, fused_rescales, galois_groups

TOY = CkksParameters.toy()
SLOTS = np.linspace(-0.75, 0.75, TOY.num_slots)
PLAIN = np.linspace(0.5, -0.25, TOY.num_slots)

#: Values each named operand of the table is drawn from.
OPERANDS = {"value": (0.5, -1.25), "rotation": (0, 1, 5, TOY.num_slots - 2),
            "rotations": ([1, 2, 3], [4], [TOY.num_slots - 2, 1]),
            "levels": (1, 2)}
REAL = [spec for spec in OPS.values() if spec.real and spec.method]
#: The Galois calls a fan-out draws from (a rotation by 0 is a copy).
GALOIS = [("he_rotate", (r,)) for r in OPERANDS["rotation"] if r] \
    + [("he_conjugate", ())]
FAN_OUT = "galois fan-out"


def _log2_q(level: int) -> float:
    return sum(math.log2(q) for q in TOY.moduli[:level + 1])


def _operand_choices(spec):
    """Every operand tuple a row's method can take here."""
    choices = [()]
    for name in spec.meta_args:
        values = (2, 3) if spec.method == "scalar_mult_int" \
            else OPERANDS[name]
        choices = [c + (v,) for c in choices for v in values]
    if spec.payload:
        choices = [c + ("pt",) for c in choices]
    return choices


def _candidates(sym, handles):
    """``(method, input indices, operands, kwargs, result handle)`` for
    every call the table's rules accept on the values held so far."""
    for spec in REAL:
        pairs = [(i,) for i in range(len(handles))] if spec.arity == 1 \
            else [(i, j) for i in range(len(handles))
                  for j in range(len(handles))]
        for inputs in pairs:
            cts = [handles[i] for i in inputs]
            for operands in _operand_choices(spec):
                for kwargs in ([{"rescale": True}, {"rescale": False}]
                               if spec.fused_rescale else [{}]):
                    # A plaintext added is encoded at its ciphertext's
                    # scale, as ``_run`` encodes it.
                    args = [sym.plaintext(cts[0].scale if spec.method
                                          == "poly_add" else None)
                            if o == "pt" else o for o in operands]
                    try:
                        out = getattr(sym, spec.method)(*cts, *args,
                                                        **kwargs)
                    except ValueError:
                        continue    # refused (repro.trace.ops.check)
                    if NOISE_FLOOR_LOG2 < math.log2(out.scale) \
                            < _log2_q(out.level) - 1:
                        yield spec.method, inputs, operands, kwargs, out


@st.composite
def programs(draw, max_ops):
    """``(source levels, steps)`` of one well-typed program."""
    sym = SymbolicEvaluator(TOY)
    levels = draw(st.lists(st.integers(2, TOY.max_level), min_size=1,
                           max_size=2))
    handles, steps = [sym.fresh(level=l) for l in levels], []
    for _ in range(draw(st.integers(1, max_ops))):
        by_method = {FAN_OUT: [(FAN_OUT, (i,)) for i in range(len(handles))]}
        for candidate in _candidates(sym, handles):
            by_method.setdefault(candidate[0], []).append(candidate)
        # The method first, so a row with many operand choices is no
        # likelier than one with a single call.
        method, inputs, *call = draw(st.sampled_from(
            by_method[draw(st.sampled_from(sorted(by_method)))]))
        if method == FAN_OUT:
            for name, operands in draw(st.lists(st.sampled_from(GALOIS),
                                                min_size=2, max_size=3)):
                handles.append(getattr(sym, name)(handles[inputs[0]],
                                                  *operands))
                steps.append((name, inputs, operands, {}))
            continue
        operands, kwargs, out = call
        # What a real ciphertext knows: no rescale=False declaration
        # exempts it from the additive scale rule.
        handles.append(SymbolicCiphertext(out.level, out.scale,
                                          out.relinearized))
        steps.append((method, inputs, operands, kwargs))
    return levels, steps


def _run(ev, sources, steps):
    """The program against any evaluator: every value it holds, and
    which sources it read, in first-use order (the order their SOURCE
    ops are recorded in)."""
    values, used = list(sources), []
    for method, inputs, operands, kwargs in steps:
        used.extend(i for i in inputs
                    if i < len(sources) and i not in used)
        cts = [values[i] for i in inputs]
        # A plaintext added to a ciphertext is encoded at its scale.
        args = [ev.encoder.encode(PLAIN, cts[0].scale
                                  if method == "poly_add" else None)
                if o == "pt" else o for o in operands]
        values.append(getattr(ev, method)(*cts, *args, **kwargs))
    return values, used


@pytest.fixture(scope="module")
def ctx():
    return CkksContext(TOY, seed=21)


def _check(ctx, levels, steps):
    """The plan's trace is the recorder's, and replay reproduces every
    value of a direct run bit for bit (a ``rescale=True`` call's value
    is its ``RESCALE`` op's), but for the products it fuses into their
    rescale, which it never makes."""
    sources = [ctx.encrypt(SLOTS, level=level) for level in levels]
    direct, used = _run(ctx.evaluator, sources, steps)
    recorded = {}

    def program(ev):
        recorded["ev"], recorded["values"] = ev, _run(ev, sources, steps)[0]
        return recorded["values"][-1]

    plan = engine.compile(program, context=ctx, name="generated")
    replay = plan.execute(ctx, sources=[sources[i] for i in used])
    assert engine.bit_identical(replay.output, direct[-1])
    recorder = recorded["ev"]
    assert plan.trace == recorder.trace
    fused = fused_rescales(plan.trace)
    assert set(replay.values) == {op.op_id for op in plan.trace.ops} \
        - set(fused)
    for value, expected in zip(recorded["values"][len(sources):],
                               direct[len(sources):]):
        op_id = recorder.producer_of(value)
        if op_id not in fused:
            assert engine.bit_identical(replay.values[op_id], expected)
    report = plan.lint()
    assert not report.has_errors, report.render()


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(programs(max_ops=8))
def test_generated_programs_replay_bit_identically_and_lint_clean(
        ctx, program):
    _check(ctx, *program)


@pytest.mark.slow
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(programs(max_ops=12))
def test_deeper_generated_programs(ctx, program):
    _check(ctx, *program)


def test_the_walk_reaches_every_real_row():
    """The strategy is only as good as its coverage: from two fresh
    ciphertexts every replayable method is a candidate (a rescale only
    of an unrescaled product: elsewhere it would sink the scale below
    the noise floor)."""
    sym = SymbolicEvaluator(TOY)
    fresh = sym.fresh(level=4)
    handles = [fresh, sym.fresh(level=3),
               sym.he_square(fresh, rescale=False)]
    offered = {c[0] for c in _candidates(sym, handles)}
    assert offered == {s.method for s in REAL}


def _groups(program):
    """The Galois groups of ``program``, recorded symbolically."""
    levels, steps = program
    recorder = TracingEvaluator(SymbolicEvaluator(TOY))
    recorder.encoder = SimpleNamespace(
        encode=lambda values, scale=None: recorder.plaintext(scale))
    _run(recorder, [recorder.fresh(level=level) for level in levels], steps)
    return galois_groups(recorder.trace)


def test_the_walk_gives_a_value_several_galois_readers():
    """Some drawn program holds a group of two or more Galois ops, so
    the replay walk above runs the hoisted group path."""
    sizes = []

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(programs(max_ops=8))
    def walk(program):
        sizes.extend(len(ops) for ops in _groups(program).values())

    walk()
    assert sizes and min(sizes) >= 2
