"""Tests for block cost counting and the analytical timing model."""

import pytest

from repro.blocksim import (AnalyticalTimingModel, BlockCostModel,
                            BlockType)
from repro.fhe.params import CkksParameters
from repro.gme.features import BASELINE, FeatureSet, GME_FULL


@pytest.fixture(scope="module")
def cost_model():
    return BlockCostModel(CkksParameters.paper())


class TestCostCounts:
    def test_ciphertext_size_matches_paper(self, cost_model):
        """Paper sec 2.2: limb ~0.44 MB; a 32-limb ciphertext ~28.3 MB.

        (The paper counts 32 limbs from logQ = 1728 / 54; at L = 23 the
        active ciphertext carries 24 limbs ~ 21.2 MB.)
        """
        limb_bytes = cost_model.params.limb_bytes()
        assert limb_bytes / 1e6 == pytest.approx(0.44, rel=0.05)
        full_32_limbs = 2 * 32 * limb_bytes
        assert full_32_limbs / 1e6 == pytest.approx(28.3, rel=0.05)
        ct_bytes = cost_model.params.ciphertext_bytes(23)
        assert ct_bytes / 1e6 == pytest.approx(21.2, rel=0.05)

    def test_switching_key_order_of_magnitude(self, cost_model):
        """Paper: ~112 MB of switching-key data per key switch (we derive
        ~87 MB from the dnum=3 hybrid construction; same order)."""
        key_mb = cost_model.switching_key_bytes(23) / 1e6
        assert 70 < key_mb < 120

    def test_level_scaling(self, cost_model):
        low = cost_model.cost(BlockType.HE_MULT, 5)
        high = cost_model.cost(BlockType.HE_MULT, 23)
        assert high.total_ops > 3 * low.total_ops
        assert high.key_bytes > 2 * low.key_bytes

    def test_he_add_is_cheap(self, cost_model):
        add = cost_model.cost(BlockType.HE_ADD, 23)
        mult = cost_model.cost(BlockType.HE_MULT, 23)
        assert add.total_ops < 0.02 * mult.total_ops
        assert add.key_bytes == 0

    def test_keyswitch_blocks_carry_key_traffic(self, cost_model):
        for block in (BlockType.HE_MULT, BlockType.HE_ROTATE):
            assert cost_model.cost(block, 23).key_bytes > 50e6

    def test_rotate_has_automorphism_moves(self, cost_model):
        rot = cost_model.cost(BlockType.HE_ROTATE, 23)
        assert rot.mov > 0

    def test_invalid_level_rejected(self, cost_model):
        with pytest.raises(ValueError):
            cost_model.cost(BlockType.HE_ADD, 99)

    def test_scaled_costs(self, cost_model):
        one = cost_model.cost(BlockType.HE_MULT, 23)
        three = one.scaled(3)
        assert three.mod_mul == 3 * one.mod_mul
        assert three.key_bytes == 3 * one.key_bytes


class TestTimingModel:
    def test_gme_faster_everywhere(self, cost_model):
        base = AnalyticalTimingModel(BASELINE)
        gme = AnalyticalTimingModel(FeatureSet(cnoc=True, mod=True,
                                               wmac=True))
        for block in BlockType:
            cost = cost_model.cost(block, 20)
            t_base = base.block_timing(cost).total_cycles
            t_gme = gme.block_timing(cost).total_cycles
            assert t_gme < t_base, block

    def test_compute_lane_profile_sensitivity(self, cost_model):
        cost = cost_model.cost(BlockType.HE_MULT, 23)
        base = AnalyticalTimingModel(BASELINE).compute_cycles(cost)
        wmac = AnalyticalTimingModel(
            FeatureSet(mod=True, wmac=True)).compute_cycles(cost)
        assert 3.0 < base / wmac < 6.0

    def test_resident_inputs_cut_dram(self, cost_model):
        gme = AnalyticalTimingModel(FeatureSet(cnoc=True))
        cost = cost_model.cost(BlockType.HE_ADD, 23)
        cold = gme.block_timing(cost)
        warm = gme.block_timing(cost,
                                resident_input_bytes=cost.input_bytes,
                                resident_output=True)
        assert warm.dram_bytes < cold.dram_bytes
        assert warm.total_cycles < cold.total_cycles

    def test_baseline_pays_redundancy(self, cost_model):
        cost = cost_model.cost(BlockType.HE_RESCALE, 23)
        base = AnalyticalTimingModel(BASELINE).block_timing(cost)
        assert base.dram_bytes > cost.compulsory_dram_bytes

    def test_instruction_count_shrinks_with_fusion(self, cost_model):
        cost = cost_model.cost(BlockType.HE_MULT, 23)
        base = AnalyticalTimingModel(BASELINE).instruction_count(cost)
        fused = AnalyticalTimingModel(
            FeatureSet(mod=True, wmac=True)).instruction_count(cost)
        assert fused < 0.5 * base

    def test_lds_scale_reduces_key_traffic(self, cost_model):
        cost = cost_model.cost(BlockType.HE_ROTATE, 23)
        small = AnalyticalTimingModel(GME_FULL).block_timing(cost)
        big = AnalyticalTimingModel(
            GME_FULL.with_lds_scale(2.0)).block_timing(cost)
        assert big.dram_bytes < small.dram_bytes
