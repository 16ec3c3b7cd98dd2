"""Tests for slot-packing utilities and the level budget.

A circuit's level budget is the op table's level and scale rules, run
shape-only by :class:`~repro.trace.SymbolicEvaluator`; the budget tests
below hold those rules, not a planner beside them.
"""

import math

import numpy as np
import pytest

from repro.fhe import CkksContext, SlotLayout
from repro.fhe.linear import LinearTransform
from repro.fhe.noise import NOISE_FLOOR_LOG2, circuit_depth
from repro.fhe.packing import replicate, rotate_sum
from repro.trace import SymbolicEvaluator


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
        """A mask is one plaintext multiply by a 0/1 vector."""
        v = np.array([1.0, 2.0, 3.0, 4.0])
        keep = np.array([1, 0, 1, 0])
        mask = ctx.encoder.encode(keep.astype(float))
        out = ctx.evaluator.poly_mult(ctx.encrypt(v), mask)
        dec = ctx.decrypt(out)[:4].real
        assert np.max(np.abs(dec - v * keep)) < 1e-3

    def test_inner_product(self, ctx):
        """A dot product is a product and a window sum."""
        a = np.array([0.5, -1.0, 2.0, 0.25])
        b = np.array([2.0, 3.0, -1.0, 4.0])
        ev = ctx.evaluator
        out = rotate_sum(ev, ev.he_mult(ctx.encrypt(a), ctx.encrypt(b)), 4)
        assert abs(ctx.decrypt(out)[0].real - float(a @ b)) < 1e-3

    def test_matrix_vector(self, ctx):
        n = ctx.params.num_slots
        rng = np.random.default_rng(2)
        m = np.zeros((n, n))
        m[:4, :4] = rng.normal(size=(4, 4))
        v = np.zeros(n)
        v[:4] = rng.uniform(-1, 1, 4)
        out = LinearTransform(ctx.evaluator, m).apply(ctx.encrypt(v))
        assert np.max(np.abs(ctx.decrypt(out)[:4].real
                             - (m @ v)[:4])) < 1e-2


class TestBudget:
    def test_fresh_budget(self, ctx):
        fresh = SymbolicEvaluator(ctx.params).fresh()
        assert fresh.level == ctx.params.max_level
        assert math.log2(fresh.scale) == ctx.params.scale_bits

    def test_mult_consumes_level(self, ctx):
        ev = SymbolicEvaluator(ctx.params)
        x = ev.fresh()
        product = ev.he_mult(x, x)
        assert product.level == ctx.params.max_level - 1
        # Scale stays near Delta with stabilized primes.
        assert abs(math.log2(product.scale) - ctx.params.scale_bits) < 1.5

    def test_budget_exhaustion_raises(self, ctx):
        ev = SymbolicEvaluator(ctx.params)
        x = ev.fresh(0)
        with pytest.raises(ValueError, match="cannot rescale at level 0"):
            ev.he_mult(x, x)

    def test_multiplications_remaining(self, ctx):
        ev = SymbolicEvaluator(ctx.params)
        x, count = ev.fresh(), 0
        while x.level >= 1 and math.log2(x.scale) > NOISE_FLOOR_LOG2:
            x = ev.he_square(x)
            count += 1
        assert count == ctx.params.max_level

    def test_rotation_free(self, ctx):
        ev = SymbolicEvaluator(ctx.params)
        x = ev.fresh()
        rotated = ev.he_rotate(x, 1)
        assert (rotated.level, rotated.scale) == (x.level, x.scale)

    def test_fresh_noise_floor(self, ctx):
        # Secret-key encryption leaves one Gaussian e as the only error:
        # 5.4e-7 here at Delta = 2^29 (the public-key form's e*u + e0 + e1*s
        # measured 8.3e-6 on the same context).
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(3):
            values = rng.uniform(-1, 1, ctx.params.num_slots)
            err = ctx.decrypt(ctx.encrypt(values)).real - values
            worst = max(worst, float(np.max(np.abs(err))))
        assert worst < 2.5e-6

    def test_circuit_depth_of_workloads(self):
        from repro.workloads import compile_workload
        depth = circuit_depth(compile_workload("boot").graph)
        # The bootstrap pipeline consumes most of L_boot's levels.
        assert 10 <= depth <= 60
