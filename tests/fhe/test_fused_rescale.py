"""ModDown and rescale fused, and a ciphertext's components in one call.

A rescaled product divides ``d + x / P`` by ``q_l`` as one division of
``Z = x + P * d`` by ``P * q_l`` (``mod_down_polys(..., plus=d)``), and
every ModDown and rescale takes all of a ciphertext's components through
one inverse and one forward transform.  Both are exact rewrites, so each
property below is bit identity: against ModDown, the add and then
rescale; against one component at a time; against the big-integer
definition; across the two backends; and through replay, which fuses a
product into the rescale that reads it (``fused_rescales``) only when
nothing else sees the product.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.fhe import CkksContext, CkksParameters, PolyContext, Representation
from repro.fhe.keys import mod_down_polys
from repro.fhe.poly import rescale_last
from repro.fhe.rns import RnsBasis
from repro.trace.ops import fused_rescales
from pins import PRESETS

PARAMS = {name: build() for name, build in
          {**PRESETS, "boot_test": CkksParameters.boot_test}.items()}
BACKENDS = ("reference", "stacked")

cases = pytest.mark.parametrize(
    "preset,backend", [(p, b) for p in PARAMS for b in BACKENDS])
examples = settings(max_examples=1, deadline=None, derandomize=True)
seeds = given(seed=st.integers(0, 2**32 - 1))


def _levels(preset):
    """Every level of the chain that can rescale: 1 .. max_level."""
    return range(1, PARAMS[preset].max_level + 1)


def _inputs(preset, backend, seed, level, comps=2):
    """``comps`` random EVAL accumulators over C_l + P and as many
    random EVAL polynomials over C_l."""
    context = PolyContext(PARAMS[preset], seed=seed, backend=backend)
    ksctx = context.backend.keyswitch_context(level)
    acc = [context.random_uniform(ksctx.extended) for _ in range(comps)]
    plus = [context.random_uniform(ksctx.ct_moduli) for _ in range(comps)]
    return ksctx, acc, plus


def _same(a, b) -> bool:
    return all(engine.polynomials_equal(x, y) for x, y in zip(a, b,
                                                              strict=True))


@cases
@examples
@seeds
def test_fused_is_moddown_then_rescale(preset, backend, seed):
    for level in _levels(preset):
        ksctx, acc, plus = _inputs(preset, backend, seed, level)
        fused = mod_down_polys(acc, ksctx, plus=plus)
        down = mod_down_polys(acc, ksctx)
        assert _same(fused,
                     rescale_last([d + x for d, x in zip(plus, down)]))
        assert all(poly.moduli == ksctx.ct_moduli[:-1]
                   and poly.rep is Representation.EVAL for poly in fused)


@cases
@examples
@seeds
def test_a_pair_is_two_single_components(preset, backend, seed):
    for level in _levels(preset):
        ksctx, acc, plus = _inputs(preset, backend, seed, level)
        assert _same(mod_down_polys(acc, ksctx),
                     [out for x in acc for out in mod_down_polys([x], ksctx)])
        assert _same(mod_down_polys(acc, ksctx, plus=plus),
                     [out for x, d in zip(acc, plus)
                      for out in mod_down_polys([x], ksctx, plus=[d])])
        assert _same(rescale_last(plus),
                     [out for d in plus for out in rescale_last([d])])


DIVISIONS = ("mod_down", "rescale", "mod_down_rescale")


def _integers(poly) -> list[int]:
    """The integers in ``[0, Q)`` a polynomial stands for over its basis."""
    return RnsBasis(list(poly.moduli)).compose_vec(poly.to_coeff().limbs)


@pytest.mark.parametrize("division,preset,backend", [
    (division, preset, backend) for division in DIVISIONS
    for preset in sorted(PARAMS) for backend in BACKENDS])
def test_each_division_is_the_big_integer_division(division, preset,
                                                   backend):
    """``round(x / D)`` composed in Python integers, the definition:
    ModDown divides x over C_l + P by P, rescale d over C_l by q_l, and
    the fused product ``Z = x + P * d`` by ``P * q_l``.  Any
    representative of x modulo its basis gives the same quotient modulo
    the kept primes: the basis over D is their product."""
    params = PARAMS[preset]
    for level in (1, params.max_level):
        ksctx, acc, plus = _inputs(preset, backend, level, level, comps=1)
        p_prod, q_l = ksctx.p_prod, ksctx.ct_moduli[-1]
        if division == "mod_down":
            (out,) = mod_down_polys(acc, ksctx)
            values, divisor = _integers(acc[0]), p_prod
        elif division == "rescale":
            (out,) = rescale_last(plus)
            values, divisor = _integers(plus[0]), q_l
        else:
            (out,) = mod_down_polys(acc, ksctx, plus=plus)
            values = [x + p_prod * d for x, d in zip(_integers(acc[0]),
                                                     _integers(plus[0]))]
            divisor = p_prod * q_l
        want = [(2 * v + divisor) // (2 * divisor) for v in values]
        assert out.rep is Representation.EVAL
        assert out.moduli == ksctx.ct_moduli[
            :None if division == "mod_down" else -1]
        for limb, q in zip(out.to_coeff().limbs, out.moduli, strict=True):
            assert [int(v) for v in limb] == [w % q for w in want]


@pytest.mark.parametrize("preset", sorted(PARAMS))
@examples
@seeds
def test_stacked_is_reference(preset, seed):
    for level in _levels(preset):
        ref = _inputs(preset, "reference", seed, level)
        stk = _inputs(preset, "stacked", seed, level)
        for plus in (False, True):
            assert _same(
                mod_down_polys(ref[1], ref[0], plus=ref[2] if plus else None),
                mod_down_polys(stk[1], stk[0], plus=stk[2] if plus else None))
        assert _same(rescale_last(ref[2]), rescale_last(stk[2]))


@cases
@examples
@seeds
def test_a_rescaled_product_is_the_product_rescaled(preset, backend, seed):
    """At every level, one of the two products (they alternate)."""
    ctx = CkksContext(PARAMS[preset], seed=seed, backend=backend)
    values = np.random.default_rng(seed).uniform(-1, 1, 8)
    ev = ctx.evaluator
    for level in _levels(preset):
        a = ctx.encrypt(values, level=level)
        if level % 2:
            b = ctx.encrypt(values[::-1], level=level)
            fused, product = ev.he_mult(a, b), ev.he_mult(a, b, False)
        else:
            fused, product = ev.he_square(a), ev.he_square(a, False)
        assert engine.bit_identical(fused, ev.rescale(product))


# -- replay ------------------------------------------------------------------

TOY = CkksParameters.toy()


@pytest.fixture(scope="module")
def toy():
    ctx = CkksContext(TOY, seed=9)
    return ctx, ctx.encrypt(np.linspace(-1, 1, 8), level=3)


def _square_then(ct, tail):
    def program(ev):
        product = ev.he_square(ct, rescale=False)
        return tail(ev, product)
    return program


@pytest.mark.parametrize("case", ["rescaled", "read-twice", "output",
                                  "fused-by-the-program", "unrelinearized"])
def test_replay_fuses_only_a_product_nothing_else_sees(toy, case):
    """... and that key-switches: an unrelinearized product has no
    ModDown to fuse, and replays as itself and its rescale."""
    ctx, ct = toy

    def read_twice(ev, product):
        rescaled = ev.rescale(product)
        ev.he_add(product, product)
        return rescaled

    def output(ev, product):
        ev.rescale(product)
        return product

    tails = {"rescaled": lambda ev, product: ev.rescale(product),
             "read-twice": read_twice, "output": output}
    program = (_square_then(ct, tails[case]) if case in tails
               else lambda ev: ev.he_square(
                   ct, relinearize=case != "unrelinearized"))
    plan = engine.compile(program, context=ctx, name=case)
    fused = fused_rescales(plan.trace)
    # The product is op 1, its rescale op 2 (a fused recording expands
    # into the same two ops).
    assert fused == ({1: 2} if case in ("rescaled", "fused-by-the-program")
                     else {})
    run = plan.execute(ctx, sources=[ct])
    assert set(run.values) == {op.op_id for op in plan.trace.ops} \
        - set(fused)
    assert engine.bit_identical(run.output, program(ctx.evaluator))
    if 1 in run.values:
        assert engine.bit_identical(run.values[1], ctx.evaluator.he_square(
            ct, rescale=False, relinearize=case != "unrelinearized"))

