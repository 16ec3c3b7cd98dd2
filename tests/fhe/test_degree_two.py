"""A product left unrelinearized: ``relinearize=False``.

``he_mult`` / ``he_square`` with ``relinearize=False`` skip the key
switch and return the degree-2 product ``(c0, c1, c2)``, which decrypts
with ``(1, s, s^2)``.  Only ``rescale`` (all three components in one
division) and decryption take it; every other evaluator op refuses it.
The served scoring program ends in such a square.
"""

import numpy as np
import pytest

from repro import engine
from repro.fhe import CkksContext
from repro.fhe.bootstrap import Bootstrapper
from repro.fhe.linear import multiply_by_i
from repro.fhe.polyval import match_scale_level
from repro.fhe.serialization import (deserialize_ciphertext,
                                     serialize_ciphertext)
from repro.serve.workloads import scoring_workload
from repro.trace import SymbolicEvaluator
from repro.trace.ir import OpKind

import bignum
from pins import PRESETS

BACKENDS = ("reference", "stacked")
cases = pytest.mark.parametrize(
    "preset,backend", [(p, b) for p in sorted(PRESETS) for b in BACKENDS])


def _context(preset, backend):
    return CkksContext(PRESETS[preset](), seed=41, backend=backend)


def _values(ctx, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, ctx.params.num_slots)


def _products(ev, a, b, **flags):
    return {"he_mult": ev.he_mult(a, b, **flags),
            "he_square": ev.he_square(a, **flags)}


@cases
@pytest.mark.parametrize("rescale", [True, False])
def test_the_degree_two_product_decrypts_as_the_relinearized(preset,
                                                             backend,
                                                             rescale):
    ctx = _context(preset, backend)
    x, y = _values(ctx, 1), _values(ctx, 2)
    a, b = ctx.encrypt(x, level=3), ctx.encrypt(y, level=3)
    raw = _products(ctx.evaluator, a, b, rescale=rescale,
                    relinearize=False)
    relin = _products(ctx.evaluator, a, b, rescale=rescale)
    want = {"he_mult": x * y, "he_square": x * x}
    for name, ct in raw.items():
        assert ct.c2 is not None and relin[name].c2 is None
        assert (ct.level, ct.scale) == (relin[name].level,
                                        relin[name].scale)
        got = ctx.decrypt(ct).real
        assert np.abs(got - ctx.decrypt(relin[name]).real).max() < 1e-4
        assert np.abs(got - want[name]).max() < 1e-4


def _integers(poly) -> np.ndarray:
    """The integers in ``[0, Q)`` an EVAL polynomial stands for, by the
    Python-integer oracle."""
    coeffs = bignum.transform(poly.moduli, poly.limbs, "inverse")
    return bignum.compose(list(coeffs), poly.moduli)


@cases
def test_a_rescaled_degree_two_product_is_the_big_integer_division(
        preset, backend):
    """Each of the three components is ``round(x / q_l)`` over
    ``C_{l-1}``, and ``rescale=True`` is the product then ``rescale``,
    bit for bit."""
    ctx = _context(preset, backend)
    ev = ctx.evaluator
    a = ctx.encrypt(_values(ctx, 3), level=2)
    b = ctx.encrypt(_values(ctx, 4), level=2)
    for name, raw in _products(ev, a, b, rescale=False,
                               relinearize=False).items():
        rescaled = ev.rescale(raw)
        fused = _products(ev, a, b, relinearize=False)[name]
        assert engine.bit_identical(fused, rescaled)
        q_l = raw.c0.moduli[-1]
        for before, after in zip(raw.components, rescaled.components,
                                 strict=True):
            assert after.moduli == before.moduli[:-1]
            want = (2 * _integers(before) + q_l) // (2 * q_l)
            got = bignum.transform(after.moduli, after.limbs, "inverse")
            for limb, q in zip(got, after.moduli, strict=True):
                assert list(limb) == list(want % q)


#: Every evaluator op but ``rescale``, as ``op(ev, degree_two, fresh)``.
REFUSING = {
    "scalar_add": lambda ev, d, f: ev.scalar_add(d, 1.0),
    "scalar_mult": lambda ev, d, f: ev.scalar_mult(d, 2.0),
    "scalar_mult_int": lambda ev, d, f: ev.scalar_mult_int(d, 2),
    "poly_add": lambda ev, d, f: ev.poly_add(d, ev.encoder.encode(
        [1.0], d.scale)),
    "poly_mult": lambda ev, d, f: ev.poly_mult(d, ev.encoder.encode([1.0])),
    "he_add": lambda ev, d, f: ev.he_add(f, d),
    "he_sub": lambda ev, d, f: ev.he_sub(d, f),
    "he_mult": lambda ev, d, f: ev.he_mult(f, d),
    "he_square": lambda ev, d, f: ev.he_square(d, relinearize=False),
    "he_rotate": lambda ev, d, f: ev.he_rotate(d, 0),
    "he_conjugate": lambda ev, d, f: ev.he_conjugate(d),
    "hoisted_rotations": lambda ev, d, f: ev.hoisted_rotations(d, [1, 2]),
    "rotate_add": lambda ev, d, f: ev.rotate_add(d, [1]),
    "mod_drop": lambda ev, d, f: ev.mod_drop(d),
    "_hoist": lambda ev, d, f: ev._hoist(d),
}
#: Library functions, each refused by the first row it runs.
LIBRARY = {
    "match_scale_level": lambda ev, d, f: match_scale_level(
        ev, d, d.level - 1, d.scale),
    "multiply_by_i": lambda ev, d, f: multiply_by_i(ev, d),
}
#: The one function that computes outside the rows: it reads the
#: components itself, and refuses under its own name.
COMPONENT_READERS = {
    "mod_raise": lambda ev, d, f: Bootstrapper(
        ev.params, ev.keygen, ev.encoder, ev).mod_raise(d),
}
#: A rotation batch is refused as the ``he_rotate`` rows it runs and
#: records; a library function as the row it runs.
ROW_OF = {"hoisted_rotations": "he_rotate", "_hoist": "he_rotate",
          "match_scale_level": "mod_drop", "multiply_by_i": "poly_mult"}


@pytest.mark.parametrize(
    "op", sorted(REFUSING) + sorted(LIBRARY) + sorted(COMPONENT_READERS))
def test_every_other_op_refuses_a_degree_two_ciphertext(op):
    """Nothing but ``rescale`` and decryption drops or misreads c2."""
    ctx = _context("toy", "stacked")
    fresh = ctx.encrypt(_values(ctx, 5), level=3)
    degree_two = ctx.evaluator.he_square(fresh, rescale=False,
                                         relinearize=False)
    with pytest.raises(ValueError,
                       match=rf"^{ROW_OF.get(op, op)} takes a relinearized"):
        {**REFUSING, **LIBRARY, **COMPONENT_READERS}[op](
            ctx.evaluator, degree_two, fresh)


def test_a_call_that_runs_no_row_returns_its_input():
    """``match_scale_level`` to the level and scale a ciphertext already
    has runs no row, so nothing refuses: it hands the input back."""
    ctx = _context("toy", "stacked")
    fresh = ctx.encrypt(_values(ctx, 5), level=3)
    degree_two = ctx.evaluator.he_square(fresh, rescale=False,
                                         relinearize=False)
    assert match_scale_level(ctx.evaluator, degree_two, degree_two.level,
                             degree_two.scale) is degree_two


@pytest.mark.parametrize("op", sorted(set(REFUSING) - {"_hoist"})
                         + sorted(LIBRARY))
def test_the_symbolic_evaluator_refuses_alike(op):
    """The shape-only evaluator carries the flag on its handles, so a
    program refused at run time is refused when it is compiled."""
    ev = SymbolicEvaluator(PRESETS["toy"]())
    fresh = ev.fresh(3)
    degree_two = ev.he_square(fresh, rescale=False, relinearize=False)
    assert not degree_two.relinearized
    assert not ev.rescale(degree_two).relinearized
    with pytest.raises(ValueError,
                       match=rf"^{ROW_OF.get(op, op)} takes a relinearized"):
        {**REFUSING, **LIBRARY}[op](ev, degree_two, fresh)


@pytest.mark.parametrize("ev", ["real", "symbolic"])
def test_relinearize_is_keyword_only(ev):
    if ev == "real":
        ctx = _context("toy", "stacked")
        ev, ct = ctx.evaluator, ctx.encrypt([0.5], level=2)
    else:
        ev = SymbolicEvaluator(PRESETS["toy"]())
        ct = ev.fresh(2)
    with pytest.raises(TypeError):
        ev.he_square(ct, True, False)
    with pytest.raises(TypeError):
        ev.he_mult(ct, ct, True, False)
    with pytest.raises(TypeError):
        ev.he_rotate(ct, 1, relinearize=False)
    assert getattr(ev.he_square(ct), "c2", None) is None
    assert getattr(ev.he_square(ct), "relinearized", True)


@cases
def test_serialization_round_trips_a_degree_two_ciphertext(preset, backend):
    ctx = _context(preset, backend)
    a = ctx.encrypt(_values(ctx, 6), level=2)
    for ct in (ctx.evaluator.he_square(a, relinearize=False),
               ctx.evaluator.he_mult(a, a, rescale=False,
                                     relinearize=False)):
        back = deserialize_ciphertext(serialize_ciphertext(ct),
                                      ctx.keygen.context)
        assert back.c2 is not None and engine.bit_identical(back, ct)
        assert np.array_equal(ctx.decrypt(back), ctx.decrypt(ct))


def test_bit_identical_tells_a_degree_two_ciphertext_apart():
    ctx = _context("toy", "stacked")
    a = ctx.encrypt(_values(ctx, 7), level=2)
    raw = ctx.evaluator.he_square(a, rescale=False, relinearize=False)
    linear = raw.copy()
    linear.c2 = None
    assert engine.bit_identical(raw, raw.copy())
    assert not engine.bit_identical(raw, linear)
    changed = raw.copy()
    changed.c2 = changed.c2 + changed.c2
    assert not engine.bit_identical(raw, changed)


@cases
def test_the_scoring_replay_is_the_direct_program(preset, backend):
    """The served square is recorded unrelinearized — no key id, no
    key-switch shape — and replay reproduces the direct run, ``c2``
    included, drawing no relinearization key."""
    params = PRESETS[preset]()
    workload = scoring_workload(16)
    plan = workload.compile(params)
    square = next(op for op in plan.trace.ops
                  if op.kind is OpKind.HE_SQUARE)
    assert square.key is None and square.meta == {"relinearized": False}
    assert "relin" not in plan.trace.keys_used()
    ctx = CkksContext(params, seed=123, backend=backend)
    ct = ctx.encrypt(_values(ctx, 8), level=plan.entry_level)
    out = plan.execute(ctx, sources=[ct]).output
    direct = workload.build_program(workload.layout(params))(
        ctx.evaluator, ct)
    assert out.c2 is not None and engine.bit_identical(out, direct)
    assert set(ctx.keygen._switching_keys) == plan.trace.keys_used()


def test_a_saved_scoring_plan_keeps_the_flag(tmp_path):
    """``meta["relinearized"]`` rides the ``.rpa`` meta residual: the
    loaded plan names the same keys and replays the same bits."""
    from repro.artifact import load_plan
    params = PRESETS["toy"]()
    plan = scoring_workload(16).compile(params)
    path = str(tmp_path / "scoring.rpa")
    plan.save(path)
    loaded = load_plan(path)
    assert [op.meta for op in loaded.trace.ops] \
        == [op.meta for op in plan.trace.ops]
    assert loaded.trace.keys_used() == plan.trace.keys_used()
    ctx = CkksContext(params, seed=9)
    ct = ctx.encrypt(_values(ctx, 9))
    assert engine.bit_identical(loaded.execute(ctx, sources=[ct]).output,
                                plan.execute(ctx, sources=[ct]).output)
