"""Tests for the MI100 config, the Table-4 pipeline and the LDS model."""

import numpy as np
import pytest

from repro.gpusim import (PAPER_TABLE4, LdsModel, PipelineProfile,
                          ScoreboardPipeline, measure_table4, mi100)


class TestConfig:
    def test_mi100_table5_values(self):
        cfg = mi100()
        assert cfg.num_cus == 120
        assert cfg.num_shader_engines == 15
        assert cfg.lds_total_mb == 7.5
        assert cfg.l2_mb == 8.0
        assert cfg.lanes_total == 7680
        assert cfg.mem_bandwidth_gbps == 1229.0

    def test_lds_scaling(self):
        cfg = mi100().with_lds_mb(15.5)
        assert abs(cfg.lds_total_mb - 15.5) < 0.2

    def test_bytes_per_cycle(self):
        cfg = mi100()
        assert cfg.bytes_per_cycle == pytest.approx(1229.0 / 1.502)


class TestTable4Pipeline:
    """The headline microbenchmark: Table 4 cycle counts."""

    @pytest.mark.parametrize("profile", list(PipelineProfile))
    def test_cycle_counts_match_paper(self, profile):
        pipe = ScoreboardPipeline(profile, seed=7)
        paper = PAPER_TABLE4[profile]
        for op, expected in paper.items():
            measured = pipe.measure_instruction(op, count=2000)
            assert measured == pytest.approx(expected, rel=0.10), \
                f"{profile.value}/{op}: {measured:.1f} vs paper {expected}"

    def test_mod_red_latency_reduced_43_percent(self):
        """Paper section 7: MOD reduces mod-red latency by ~43%."""
        vanilla = ScoreboardPipeline(PipelineProfile.VANILLA, seed=7)
        mod = ScoreboardPipeline(PipelineProfile.MOD, seed=7)
        v = vanilla.measure_instruction("mod_red", 2000)
        m = mod.measure_instruction("mod_red", 2000)
        reduction = 1 - m / v
        assert 0.35 < reduction < 0.50

    def test_wmac_strictly_fastest(self):
        results = measure_table4(count=500)
        for op in ("mod_red", "mod_add", "mod_mul"):
            assert results[PipelineProfile.MOD_WMAC][op] < \
                results[PipelineProfile.MOD][op] < \
                results[PipelineProfile.VANILLA][op]

    def test_unknown_instruction_rejected(self):
        pipe = ScoreboardPipeline(PipelineProfile.VANILLA)
        with pytest.raises(KeyError):
            pipe.instruction_latency("fancy_op")

    def test_deterministic_given_seed(self):
        a = ScoreboardPipeline(PipelineProfile.VANILLA, seed=3)
        b = ScoreboardPipeline(PipelineProfile.VANILLA, seed=3)
        assert a.measure_instruction("mod_mul", 100) == \
            b.measure_instruction("mod_mul", 100)


class TestLds:
    def test_conflict_free_unit_stride(self):
        lds = LdsModel()
        cycles = lds.access_strided(1)
        assert cycles == lds.base_latency

    def test_power_of_two_stride_conflicts(self):
        lds = LdsModel()
        # Stride 32 words: every lane hits the same bank -> 16-way serial.
        cycles = lds.access_strided(32)
        assert cycles == lds.base_latency + 15

    def test_same_bank_addresses_serialize(self):
        lds = LdsModel()
        addrs = np.zeros(16, dtype=int)           # all lanes, one address
        assert lds.access_addresses(addrs) == lds.base_latency + 15

    def test_distinct_banks_no_conflict(self):
        lds = LdsModel()
        addrs = np.arange(16) * 4
        assert lds.access_addresses(addrs) == lds.base_latency

    def test_random_access_overhead_is_small(self):
        lds = LdsModel()
        rng = np.random.default_rng(3)
        total = sum(lds.access_random(rng) for _ in range(500))
        avg = total / 500
        assert lds.base_latency < avg < lds.base_latency + 4
