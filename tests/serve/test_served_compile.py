"""A served plan is recorded, not run.

``ServedWorkload.compile`` traces the served program on the shape-only
:class:`~repro.trace.SymbolicEvaluator` carrying the parameter set's
real :class:`~repro.fhe.encoder.CkksEncoder`: the payloads are real
plaintexts, every ciphertext op is a (level, scale) handle.  The plan
must be the one a run of the program on a real context records
(``engine.compile(program, context=...)``, the oracle here), row for
row, payload for payload, and replay to the same bits; building it
must make no key and run no transform; and the shared plan must hold
nothing of a compile-time context.
"""

import gc
import types

import numpy as np
import pytest

import pins
from repro import engine
from repro.fhe import CkksContext, CkksParameters, keys
from repro.fhe.backend.reference import ReferenceBackend
from repro.fhe.backend.stacked import StackedBackend
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.poly import PolyContext
from repro.serve import ServedWorkload, scoring_workload, shared_plan
from repro.serve.cache import clear_serve_caches

WIDTH = pins.WIDTH

CASES = {("scoring", "toy"): (pins.SERVED["scoring"], CkksParameters.toy),
         ("scoring", "pw54"): (pins.SERVED["scoring"], pins.pw54),
         ("affine", "toy"): (pins.affine_workload, CkksParameters.toy)}


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_serve_caches()
    yield
    clear_serve_caches()


def _oracle(workload: ServedWorkload, params: CkksParameters,
            level: int) -> engine.ExecutablePlan:
    """The plan a real run records: the program on a sample encrypted at
    ``level`` under its own keys, annotated as a served plan is."""
    ctx = CkksContext(params, seed=4242)
    sample = ctx.encrypt(np.zeros(params.num_slots), level=level)
    layout = workload.layout(params)
    body = workload.build_program(layout)
    plan = engine.compile(lambda ev: body(ev, sample), context=ctx,
                          name=f"serve/{workload.name}")
    workload._annotate(plan, layout)
    return plan


def _rows(plan: engine.ExecutablePlan) -> list[tuple]:
    return [(op.op_id, op.kind, op.inputs, op.level, op.out_level,
             op.out_scale, op.key, op.region, op.meta)
            for op in plan.trace.ops]


def _payloads(plan: engine.ExecutablePlan) -> dict[int, tuple]:
    return {op_id: (np.asarray(pt.coeffs).tolist(), pt.scale, pt.num_slots)
            for op_id, pt in plan.trace.payloads.items()}


@pytest.mark.parametrize("workload,preset", sorted(CASES))
class TestIdentity:
    def test_the_recording_is_the_real_runs(self, workload, preset):
        make, preset_params = CASES[workload, preset]
        served, params = make(), preset_params()
        plan = served.compile(params)
        oracle = _oracle(served, params, plan.entry_level)
        assert _rows(plan) == _rows(oracle)
        assert _payloads(plan) == _payloads(oracle)
        assert plan.trace.output_op_id == oracle.trace.output_op_id
        assert plan.fingerprint == oracle.fingerprint
        assert plan.program is None

    def test_a_tenant_replays_the_same_bits(self, workload, preset):
        make, preset_params = CASES[workload, preset]
        served, params = make(), preset_params()
        plan = served.compile(params)
        oracle = _oracle(served, params, plan.entry_level)
        tenant = CkksContext(params, seed=77)
        slots = np.random.default_rng(3).uniform(-1.0, 1.0,
                                                 params.num_slots)
        source = tenant.encrypt(slots, level=plan.entry_level)
        got = plan.execute(tenant, sources=[source]).output
        want = oracle.execute(tenant, sources=[source]).output
        direct = served.build_program(served.layout(params))(
            tenant.evaluator, source)
        assert engine.bit_identical(got, want)
        assert engine.bit_identical(got, direct)


class TestCountBudget:
    """A cold deploy makes nothing secret and transforms nothing.

    Recorded on the parent, whose compile ran the program on a
    ``"_service"`` context: a cold scoring compile, at ``toy`` and at
    ``pw54`` alike, constructed 1 ``KeyGenerator``, made 6
    ``_draw_switching_keys`` calls (one rotation key each, drawn as the
    program reached it) and 15 ``ntt_forward`` / 6 ``ntt_inverse``
    backend calls."""

    @pytest.mark.parametrize("preset", ["toy", "pw54"])
    def test_a_cold_compile_draws_no_key_and_runs_no_transform(
            self, monkeypatch, preset):
        calls: dict[str, int] = {}

        def counted(owner, name):
            inner = getattr(owner, name)

            def counting(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        counted(keys.KeyGenerator, "__init__")
        counted(keys.KeyGenerator, "_draw_switching_keys")
        for backend in (StackedBackend, ReferenceBackend):
            counted(backend, "ntt_forward")
            counted(backend, "ntt_inverse")
        params = pins.PRESETS[preset]()
        workload = scoring_workload(WIDTH)
        plan = workload.compile(params)
        assert calls == {}
        assert len(plan.trace.keys_used()) == 6
        # The counters see what they are there to see: a real run does
        # all four.
        _oracle(workload, params, plan.entry_level)
        assert sorted(calls) == ["__init__", "_draw_switching_keys",
                                 "ntt_forward", "ntt_inverse"]


def _reachable_types(root) -> dict[type, int]:
    """How many objects of each type ``gc.get_referents`` reaches from
    ``root``, not entering modules, classes or a function's globals."""
    seen, counts, stack = {id(root)}, {}, [root]
    while stack:
        obj = stack.pop()
        counts[type(obj)] = counts.get(type(obj), 0) + 1
        skip = obj.__globals__ if isinstance(obj, types.FunctionType) \
            else None
        for child in gc.get_referents(obj):
            if (child is skip or id(child) in seen
                    or isinstance(child, (types.ModuleType, type))):
                continue
            seen.add(id(child))
            stack.append(child)
    return counts


def test_the_shared_plan_pins_nothing_from_compile_time():
    """The parent's plan reached 1 ``Ciphertext`` and 1 ``PolyContext``:
    the ``"_service"`` sample, held by ``plan.program``'s closure."""
    plan = shared_plan(scoring_workload(WIDTH), CkksParameters.toy())
    reached = _reachable_types(plan)
    for pinned in (Ciphertext, PolyContext, keys.KeyGenerator):
        assert reached.get(pinned, 0) == 0, pinned.__name__
    assert reached[np.ndarray] >= 1     # the payload's coefficients
