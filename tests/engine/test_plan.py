"""repro.engine: plan cache identity, back-end consistency, replay."""

import numpy as np
import pytest

import pins
from repro import engine
from repro.blocksim import BlockGraphSimulator
from repro.fhe import CkksContext
from repro.fhe.params import CkksParameters
from repro.gme.features import BASELINE, GME_FULL
from repro.workloads import EncryptedConvLayer
from repro.workloads.registry import compile_workload, workload_names


def _square_chain(ev):
    ct = ev.fresh()
    for _ in range(3):
        ct = ev.he_square(ct, rescale=True)
    return ct


class TestFrontDoor:
    """engine is the one import users need: compile by name, catalog
    helpers, and the serving layer all hang off it."""

    def test_compile_accepts_workload_name(self):
        assert engine.compile("boot") is compile_workload("boot")
        params = CkksParameters.test()
        assert engine.compile("helr", params) \
            is compile_workload("helr", params)

    def test_compile_name_with_context_rejected(self):
        with pytest.raises(ValueError, match="catalog"):
            engine.compile("boot", context=CkksContext.toy())

    def test_compile_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError):
            engine.compile("no-such-workload")

    def test_catalog_reexports_are_the_registry(self):
        from repro.workloads import registry
        assert engine.compile_workload is registry.compile_workload
        assert engine.register_workload is registry.register_workload
        assert engine.workload_plans is registry.workload_plans
        assert set(engine.workload_names()) \
            >= {"boot", "helr", "resnet"}

    def test_serve_reexport_is_the_serving_package(self):
        import repro.serve
        assert engine.serve is repro.serve
        assert engine.serve.PlanServer is repro.serve.PlanServer

    def test_all_names_resolve(self):
        for name in engine.__all__:
            assert getattr(engine, name) is not None
        assert set(engine.__all__) <= set(dir(engine))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="nope"):
            engine.nope


class TestPlanCache:
    def test_same_program_and_params_share_one_plan(self):
        params = CkksParameters.toy()
        first = engine.compile(_square_chain, params)
        second = engine.compile(_square_chain, CkksParameters.toy())
        assert first is second

    def test_registry_workloads_share_one_plan(self):
        for name in workload_names():
            assert compile_workload(name) is compile_workload(name)

    def test_feature_sets_do_not_recompile(self):
        params = CkksParameters.toy()
        plan = engine.compile(_square_chain, params)
        before = engine.plan_cache_info().misses
        plan.simulate(BASELINE)
        plan.simulate(GME_FULL)
        plan.simulate(GME_FULL.with_lds_scale(2.0))
        assert engine.compile(_square_chain, params) is plan
        assert engine.plan_cache_info().misses == before

    def test_different_params_compile_different_plans(self):
        plan_toy = engine.compile(_square_chain, CkksParameters.toy())
        plan_test = engine.compile(_square_chain, CkksParameters.test())
        assert plan_toy is not plan_test
        assert plan_toy.params != plan_test.params

    def test_simulate_caches_per_feature_set(self):
        plan = engine.compile(_square_chain, CkksParameters.toy())
        assert plan.simulate(GME_FULL) is plan.simulate(
            GME_FULL.with_lds_scale(1.0))


class TestSimulateProfileConsistency:
    @pytest.mark.parametrize("name", ["boot", "helr", "resnet"])
    @pytest.mark.parametrize("features", [BASELINE, GME_FULL],
                             ids=["baseline", "gme"])
    def test_profile_totals_equal_simulate_totals(self, name, features):
        """Acceptance: per-op attribution decomposes the simulated run."""
        plan = compile_workload(name)
        assert plan.profile(features).total_cycles \
            == plan.simulate(features).cycles

    def test_op_cycles_sum_to_total(self):
        plan = compile_workload("boot")
        profile = plan.profile(GME_FULL)
        assert sum(op.cycles for op in profile.ops) \
            == pytest.approx(profile.total_cycles)

    def test_every_block_attributed_to_a_trace_op(self):
        plan = compile_workload("boot")
        profile = plan.profile(GME_FULL)
        assert all(op.op_id is not None for op in profile.ops)
        assert sum(op.blocks for op in profile.ops) == plan.num_blocks

    def test_profile_regions_cover_program_structure(self):
        plan = compile_workload("boot")
        regions = set(plan.profile(GME_FULL).by_region())
        assert any(r.startswith("boot/cts") for r in regions)
        assert any(r.startswith("boot/evalmod") for r in regions)

    def test_simulate_matches_direct_simulator(self):
        plan = compile_workload("helr")
        direct = BlockGraphSimulator(GME_FULL).run(plan.graph, "helr")
        assert plan.simulate(GME_FULL).cycles == direct.cycles


class TestExecuteReplay:
    """Acceptance: plan.execute vs direct evaluator, bit-identical."""

    @pytest.fixture(scope="class")
    def ctx(self):
        return CkksContext.toy(seed=13)

    @pytest.fixture(scope="class")
    def conv_setup(self, ctx):
        kernel = np.array([[0.0, 0.1, 0.0], [0.1, 0.5, 0.1],
                           [0.0, 0.1, 0.0]])
        rng = np.random.default_rng(3)
        image = rng.uniform(0, 1, (4, 4))
        ct_in = ctx.encrypt(image.flatten())

        def conv_program(ev):
            layer = EncryptedConvLayer(ctx, image_size=4, kernel=kernel,
                                       evaluator=ev)
            return ev.he_square(layer.apply(ct_in))

        plan = engine.compile(conv_program, context=ctx, name="conv")
        layer = EncryptedConvLayer(ctx, image_size=4, kernel=kernel)
        direct = ctx.evaluator.he_square(layer.apply(ct_in))
        return plan, ct_in, direct

    def test_replay_is_bit_identical_to_direct(self, ctx, conv_setup):
        plan, ct_in, direct = conv_setup
        replay = plan.execute(ctx, sources=[ct_in])
        assert engine.bit_identical(replay.output, direct)

    def test_replay_twice_is_deterministic(self, ctx, conv_setup):
        plan, ct_in, _ = conv_setup
        first = plan.execute(ctx, sources=[ct_in])
        second = plan.execute(ctx, sources=ct_in)   # single-source form
        assert engine.bit_identical(first.output, second.output)

    def test_real_mode_plan_simulates_too(self, conv_setup):
        plan, _, _ = conv_setup
        metrics = plan.simulate(GME_FULL)
        assert metrics.blocks == plan.num_blocks

    def test_missing_source_raises(self, ctx, conv_setup):
        plan, _, _ = conv_setup
        with pytest.raises(engine.PlanError, match="SOURCE"):
            plan.execute(ctx)

    def test_wrong_level_source_raises(self, ctx, conv_setup):
        plan, ct_in, _ = conv_setup
        shallow = ctx.evaluator.mod_drop(ct_in, 2)
        with pytest.raises(engine.PlanError, match="level"):
            plan.execute(ctx, sources=[shallow])

    def test_a_source_above_the_entry_level_is_dropped_to_it(self, ctx,
                                                             conv_setup):
        """A plan traced from level 3 replays a level-5 source exactly
        as the same source ``mod_drop``ped to 3 first."""
        _, ct_in, _ = conv_setup
        ev = ctx.evaluator
        low = ev.mod_drop(ct_in, ct_in.level - 3)

        def program(ev):
            return ev.rotate_add(ev.he_square(low, rescale=True), [1, 2])

        plan = engine.compile(program, context=ctx, name="low-entry")
        assert (ct_in.level, plan.entry_level) == (5, 3)
        high = plan.execute(ctx, sources=[ct_in])
        dropped = plan.execute(ctx, sources=[ev.mod_drop(ct_in, 2)])
        assert engine.bit_identical(high.output, dropped.output)
        assert engine.bit_identical(high.output, program(ev))

    def test_a_source_below_the_entry_level_is_refused(self, ctx,
                                                       conv_setup):
        plan, ct_in, _ = conv_setup
        assert plan.entry_level == ct_in.level
        with pytest.raises(engine.PlanError,
                           match="below the recorded level 5"):
            plan.execute(ctx, sources=[ctx.evaluator.mod_drop(ct_in)])

    def test_params_mismatch_raises(self, conv_setup):
        plan, _, _ = conv_setup
        other = CkksContext.test()
        with pytest.raises(engine.PlanError, match="parameters"):
            plan.execute(other)

    def test_output_is_the_programs_return_value(self, ctx):
        """The program's return value need not be the final trace op
        (hoisted_rotations records in sorted order)."""
        ct = ctx.encrypt([0.3, -0.2])

        def pick_rotation_one(ev):
            rotated = ev.hoisted_rotations(ct, [4, 1])
            return rotated[1]

        plan = engine.compile(pick_rotation_one, context=ctx,
                              name="pick")
        assert plan.trace.ops[-1].meta.get("rotation") == 4
        replay = plan.execute(ctx, sources=[ct])
        direct = ctx.evaluator.he_rotate(ct, 1)
        assert engine.bit_identical(replay.output, direct)

    def test_replay_reads_hoisting_off_the_data_flow(self, ctx,
                                                     monkeypatch):
        """The program names no hoist: a batch member and a plain
        rotation of the same ciphertext read one value, so replay raises
        its c1 once for both, bit-identical to the direct run."""
        ct = ctx.encrypt([0.3, -0.2])

        def rotate_twice(ev):
            hoisted = ev.hoisted_rotations(ct, [1])[1]
            return ev.he_add(hoisted, ev.he_rotate(ct, 2))

        plan = engine.compile(rotate_twice, context=ctx, name="rot12")
        ev = ctx.evaluator
        raises = []
        monkeypatch.setattr(ev, "_hoist", lambda c: raises.append(c)
                            or type(ev)._hoist(ev, c))
        replay = plan.execute(ctx, sources=[ct])
        assert raises == [ct]
        direct = ev.he_add(ev.he_rotate(ct, 1), ev.he_rotate(ct, 2))
        assert engine.bit_identical(replay.output, direct)

    def test_profile_seeds_the_simulate_cache(self, conv_setup):
        """profile() then simulate() must not re-run the simulator."""
        plan, _, _ = conv_setup
        profile = plan.profile(BASELINE)
        assert plan.simulate(BASELINE) is profile.metrics

    def test_symbolic_only_ops_refuse_replay(self, ctx):
        def refreshing(ev):
            return ev.refresh(ev.fresh(level=1), 4)
        plan = engine.compile(refreshing, ctx.params)
        ct = ctx.encrypt([0.1], level=1)
        with pytest.raises(engine.PlanError, match="symbolic-only"):
            plan.execute(ctx, sources=[ct])


class TestFreshContexts:
    """A switching key is a function of (seed, id): a replay and a
    direct run on fresh same-seed contexts agree bit for bit, whichever
    runs first.  The replay draws each key once, at its plan's highest
    key-switch level; the direct run draws a key at the level it is
    first asked for, and ``branch`` asks for ``rot-1`` at level 2 before
    level 4, so its key is redrawn higher mid-run."""

    PRESETS = pins.PRESETS

    @staticmethod
    def _branch(ev, ct):
        low = ev.he_rotate(ev.mod_drop(ct, ct.level - 2), 1)
        high = ev.he_rotate(ct, 1)
        return ev.he_square(ev.he_add(high, low))

    def _setup(self, program, params):
        if program == "scoring":
            from repro.serve.workloads import scoring_workload

            workload = scoring_workload(16)
            return (workload.compile(params),
                    workload.build_program(workload.layout(params)))
        sample = CkksContext(params, seed=3).encrypt([0.0], level=4)
        plan = engine.compile(lambda ev: self._branch(ev, sample),
                              context=CkksContext(params, seed=3),
                              name="branch")
        return plan, self._branch

    @pytest.mark.parametrize("order",
                             ["replay-first", "direct-first", "one-context"])
    @pytest.mark.parametrize("program", ["scoring", "branch"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_replay_matches_a_direct_run(self, preset, program, order):
        params = self.PRESETS[preset]()
        plan, run = self._setup(program, params)
        x = np.random.default_rng(5).uniform(-0.5, 0.5, params.num_slots)

        def fresh():
            ctx = CkksContext(params, seed=47)
            return ctx, ctx.encrypt(x, level=plan.entry_level)

        def replay(ctx, ct):
            return plan.execute(ctx, sources=[ct]).output

        def direct(ctx, ct):
            return run(ctx.evaluator, ct)

        if order == "replay-first":
            first, second = replay(*fresh()), direct(*fresh())
        elif order == "direct-first":
            second, first = direct(*fresh()), replay(*fresh())
        else:
            ctx, ct = fresh()
            second, first = direct(ctx, ct), replay(ctx, ct)
        assert engine.bit_identical(first, second)
        levels = {op.level for op in plan.trace.keyswitch_ops()}
        assert levels == {"scoring": {{"toy": 2, "pw54": 1}[preset]},
                          "branch": {2, 4}}[program]
