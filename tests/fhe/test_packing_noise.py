"""Tests for slot-packing utilities and the noise/level budget tracker."""

import numpy as np
import pytest

from repro.fhe import CkksContext, SlotLayout
from repro.fhe.noise import LevelBudget, circuit_depth, measure_fresh_noise
from repro.fhe.packing import (inner_product, mask_slots, matrix_vector,
                               replicate, rotate_sum)


@pytest.fixture(scope="module")
def ctx():
    return CkksContext.toy(seed=51)


class TestSlotLayout:
    LAYOUT = SlotLayout(num_slots=512, width=8)

    def test_capacity_windows_offsets(self):
        assert self.LAYOUT.capacity == 64
        assert self.LAYOUT.offset(3) == 24
        assert self.LAYOUT.window(3) == slice(24, 32)
        assert self.LAYOUT.occupancy(32) == 0.5

    def test_for_params_uses_message_slots(self, ctx):
        layout = SlotLayout.for_params(ctx.params, 8)
        assert layout.num_slots == ctx.params.num_slots

    def test_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            SlotLayout(num_slots=512, width=3)
        with pytest.raises(ValueError, match="power of two"):
            SlotLayout(num_slots=500, width=4)
        with pytest.raises(ValueError, match="exceeds"):
            SlotLayout(num_slots=8, width=16)
        with pytest.raises(ValueError):
            self.LAYOUT.offset(64)

    def test_pack_unpack_roundtrip(self):
        vectors = [np.arange(8, dtype=float) + 10 * i for i in range(5)]
        packed = self.LAYOUT.pack_many(vectors)
        assert packed.shape == (512,)
        assert not packed[5 * 8:].any()
        for original, back in zip(
                vectors, self.LAYOUT.unpack_many(packed, 5)):
            assert np.array_equal(original, back)

    def test_pack_zero_pads_short_vectors_and_take_trims(self):
        packed = self.LAYOUT.pack_many([[1.0, 2.0], [3.0]])
        assert np.array_equal(packed[:8], [1, 2, 0, 0, 0, 0, 0, 0])
        first, second = self.LAYOUT.unpack_many(packed, 2, take=1)
        assert first[0] == 1.0 and second[0] == 3.0

    def test_pack_promotes_complex(self):
        packed = self.LAYOUT.pack_many([[1.0 + 1.0j], [2.0]])
        assert np.iscomplexobj(packed)
        assert packed[0] == 1.0 + 1.0j

    def test_pack_rejects_overflow(self):
        with pytest.raises(ValueError, match="capacity"):
            self.LAYOUT.pack_many([np.zeros(8)] * 65)
        with pytest.raises(ValueError, match="width"):
            self.LAYOUT.pack_many([np.zeros(9)])
        with pytest.raises(ValueError, match="1-D"):
            self.LAYOUT.pack_many([np.zeros((2, 2))])

    def test_unpack_bounds(self):
        packed = self.LAYOUT.pack_many([np.ones(8)])
        with pytest.raises(ValueError, match="take"):
            self.LAYOUT.unpack_many(packed, 1, take=9)
        with pytest.raises(ValueError, match="capacity"):
            self.LAYOUT.unpack_many(packed, 65)

    def test_rotate_sum_is_window_local(self, ctx):
        """The property slot-batching rests on: each window's reduction
        sees only that window's slots."""
        layout = SlotLayout.for_params(ctx.params, 4)
        packed = layout.pack_many([[1, 2, 3, 4], [10, 20, 30, 40]])
        out = layout.rotate_sum(ctx.evaluator, ctx.encrypt(packed))
        dec = ctx.decrypt(out).real
        sums = layout.unpack_many(dec, 2, take=1)
        assert abs(sums[0][0] - 10.0) < 1e-3
        assert abs(sums[1][0] - 100.0) < 1e-3

    def test_replicate_broadcasts_within_windows(self, ctx):
        layout = SlotLayout.for_params(ctx.params, 4)
        packed = layout.pack_many([[2.5], [-1.5]])
        out = layout.replicate(ctx.evaluator, ctx.encrypt(packed))
        dec = ctx.decrypt(out).real
        windows = layout.unpack_many(dec, 2)
        assert np.max(np.abs(windows[0] - 2.5)) < 1e-3
        assert np.max(np.abs(windows[1] + 1.5)) < 1e-3


class TestPacking:
    def test_rotate_sum_window(self, ctx):
        n = ctx.params.num_slots
        v = np.zeros(n)
        v[:8] = np.arange(1, 9)
        out = rotate_sum(ctx.evaluator, ctx.encrypt(v), 8)
        assert abs(ctx.decrypt(out)[0].real - 36.0) < 1e-3

    def test_rotate_sum_multiple_windows(self, ctx):
        n = ctx.params.num_slots
        v = np.zeros(n)
        v[:4] = [1, 2, 3, 4]
        v[4:8] = [10, 20, 30, 40]
        out = rotate_sum(ctx.evaluator, ctx.encrypt(v), 4)
        dec = ctx.decrypt(out).real
        assert abs(dec[0] - 10.0) < 1e-3
        assert abs(dec[4] - 100.0) < 1e-3

    def test_rotate_sum_rejects_non_power_of_two(self, ctx):
        with pytest.raises(ValueError):
            rotate_sum(ctx.evaluator, ctx.encrypt([1.0]), 3)

    def test_replicate(self, ctx):
        n = ctx.params.num_slots
        v = np.zeros(n)
        v[0] = 2.5
        out = replicate(ctx.evaluator, ctx.encrypt(v), 4)
        dec = ctx.decrypt(out).real
        assert np.max(np.abs(dec[:4] - 2.5)) < 1e-3

    def test_mask_slots(self, ctx):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        keep = np.array([1, 0, 1, 0])
        out = mask_slots(ctx.evaluator, ctx.encoder, ctx.encrypt(v), keep)
        dec = ctx.decrypt(out)[:4].real
        assert np.max(np.abs(dec - v * keep)) < 1e-3

    def test_inner_product(self, ctx):
        a = np.array([0.5, -1.0, 2.0, 0.25])
        b = np.array([2.0, 3.0, -1.0, 4.0])
        out = inner_product(ctx.evaluator, ctx.encrypt(a), ctx.encrypt(b),
                            4)
        assert abs(ctx.decrypt(out)[0].real - float(a @ b)) < 1e-3

    def test_matrix_vector(self, ctx):
        n = ctx.params.num_slots
        rng = np.random.default_rng(2)
        m = np.zeros((n, n))
        m[:4, :4] = rng.normal(size=(4, 4))
        v = np.zeros(n)
        v[:4] = rng.uniform(-1, 1, 4)
        out = matrix_vector(ctx.evaluator, ctx.encoder, m, ctx.encrypt(v))
        assert np.max(np.abs(ctx.decrypt(out)[:4].real
                             - (m @ v)[:4])) < 1e-2


class TestBudget:
    def test_fresh_budget(self, ctx):
        budget = LevelBudget.fresh(ctx.params)
        assert budget.level == ctx.params.max_level
        assert budget.log_scale == ctx.params.scale_bits

    def test_mult_consumes_level(self, ctx):
        budget = LevelBudget.fresh(ctx.params).after_mult()
        assert budget.level == ctx.params.max_level - 1
        # Scale stays near Delta with stabilized primes.
        assert abs(budget.log_scale - ctx.params.scale_bits) < 1.5

    def test_budget_exhaustion_raises(self, ctx):
        budget = LevelBudget(ctx.params, 0, 29.0)
        with pytest.raises(ValueError):
            budget.after_mult()

    def test_multiplications_remaining(self, ctx):
        budget = LevelBudget.fresh(ctx.params)
        assert budget.multiplications_remaining() == ctx.params.max_level

    def test_rotation_free(self, ctx):
        budget = LevelBudget.fresh(ctx.params).after_rotation()
        assert budget.level == ctx.params.max_level

    def test_fresh_noise_floor(self, ctx):
        # Secret-key encryption leaves one Gaussian e as the only error:
        # 5.4e-7 here at Delta = 2^29 (the public-key form's e*u + e0 + e1*s
        # measured 8.3e-6 on the same context).
        noise = measure_fresh_noise(ctx, trials=3)
        assert noise < 2.5e-6

    def test_circuit_depth_of_workloads(self):
        from repro.workloads import compile_workload
        depth = circuit_depth(compile_workload("boot").graph)
        # The bootstrap pipeline consumes most of L_boot's levels.
        assert 10 <= depth <= 60
