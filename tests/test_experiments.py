"""Smoke + shape tests for the experiment harnesses and support models."""

from dataclasses import dataclass

import pytest

from repro.baselines import TABLE7_US, TABLE8
from repro.blocksim.blocks import BlockCostModel, BlockType
from repro.experiments import claims, table4, table6, table7, table9
from repro.rtlmodel import synthesize_all


@dataclass(frozen=True)
class PlatformModel:
    """Roofline of a comparator platform: a plausibility check on the
    published comparator numbers, which no experiment reads."""

    modmul_throughput_gops: float   # 64-bit modular mults per ns * 1e9
    mem_bandwidth_gbps: float
    onchip_mb: float
    bw_efficiency: float

    def block_time_us(self, block: BlockType, level: int = 23) -> float:
        cost = BlockCostModel().cost(block, level)
        ops = cost.mod_mul + cost.mod_add / 4 + cost.ntt_butterflies
        compute_us = ops / (self.modmul_throughput_gops * 1e3)
        traffic = cost.key_bytes + cost.input_bytes + cost.output_bytes \
            + max(0.0, cost.intermediate_bytes - self.onchip_mb * 1e6)
        memory_us = traffic / (self.mem_bandwidth_gbps * 1e3
                               * self.bw_efficiency)
        return max(compute_us, memory_us)


#: Comparator platforms, from their public spec sheets.
CPU_LATTIGO = PlatformModel(0.8, mem_bandwidth_gbps=100, onchip_mb=38.5,
                            bw_efficiency=0.5)
GPU_100X = PlatformModel(70, mem_bandwidth_gbps=900, onchip_mb=6,
                         bw_efficiency=0.35)


class TestExperimentHarnesses:
    def test_table4_shape(self):
        rows = table4.run(count=500)
        assert len(rows) == 3
        for cells in rows.values():
            assert set(cells) == {"mod_red", "mod_add", "mod_mul"}

    def test_table6_within_band(self):
        """The harness's rows hold their ledger bands (one per cell)."""
        assert all(claim.holds for claim in claims.ledger([table6]))

    def test_table7_gme_always_wins(self):
        for name, cells in table7.run().items():
            assert cells["gme"][0] < cells["baseline"][0], name

    def test_table9_matches_paper_exactly(self):
        rows = claims.ledger([table9])
        assert len(rows) == 44 and all(claim.holds for claim in rows)

    def test_runner_module_lists_all(self):
        from repro.experiments.runner import HARNESSES
        assert set(HARNESSES) == {"table4", "table6", "table7", "table8",
                                  "table9", "fig6", "fig7", "fig8",
                                  "opmix"}
        # every harness but the op-mix table reports paper cells
        assert set(claims.ROWS) == set(HARNESSES.values()) - {
            HARNESSES["opmix"]}


class TestRunnerCli:
    def test_json_export_selected_harness(self, tmp_path):
        import json
        from repro.experiments.export import SCHEMA_VERSION
        from repro.experiments.runner import main
        out = tmp_path / "out.json"
        main(["--only", "table6", "--json", str(out)])
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["kind"] == "experiments.runner"
        assert doc["source"] == "traced"
        assert set(doc["harnesses"]) == {"table6"}
        assert doc["harnesses"]["table6"]["seconds"] >= 0
        result = doc["harnesses"]["table6"]["result"]
        assert result            # every cell is a (modeled, paper) pair
        for cells in result.values():
            for pair in cells.values():
                assert len(pair) == 2

    def test_export_envelope_reserves_its_keys(self):
        from repro.experiments.export import ENVELOPE_KEYS, envelope
        doc = envelope("bench.anything", lanes={})
        assert all(key in doc for key in ENVELOPE_KEYS)
        with pytest.raises(ValueError):
            envelope("bench.anything", kind="collides")

    def test_json_export_is_serializable_for_every_harness(self):
        """collect() output must survive json round-trips (tuples,
        enums and numpy scalars coerced)."""
        import json
        from repro.experiments.runner import collect
        doc = collect(["table4", "table6", "table9"])
        json.dumps(doc)

    def test_unknown_harness_rejected(self):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["--only", "nope"])

    def test_print_mode_respects_only(self, capsys):
        from repro.experiments.runner import main
        main(["--only", "table6"])
        out = capsys.readouterr().out
        assert "Table 6" in out
        assert "Table 4" not in out

    def test_print_mode_without_ledger_rows_is_a_usage_error(self, capsys):
        """opmix reports no paper cells: print mode points at --json and
        the analysis CLI instead of printing an empty table."""
        from repro.experiments.runner import main
        with pytest.raises(SystemExit) as exit_info:
            main(["--only", "opmix"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--json" in captured.err and "--op-mix" in captured.err

    def test_list_prints_slugs_and_exits_cleanly(self, capsys):
        from repro.experiments.runner import HARNESSES, main
        main(["--list"])
        out = capsys.readouterr().out.split()
        assert out == sorted(HARNESSES)


class TestComparatorModels:
    def test_platform_roofline_orders_platforms(self):
        """The V100 model must beat the CPU model on HEMult."""
        cpu = CPU_LATTIGO.block_time_us(BlockType.HE_MULT)
        gpu = GPU_100X.block_time_us(BlockType.HE_MULT)
        assert gpu < cpu / 10

    def test_100x_model_order_of_magnitude(self):
        """Analytic 100x estimate within ~5x of its published HEMult."""
        est = GPU_100X.block_time_us(BlockType.HE_MULT)
        published = TABLE7_US["100x"]["HEMult"]
        assert published / 5 < est < published * 5

    def test_published_tables_complete(self):
        assert set(TABLE7_US["GME"]) == {"CMult", "HEAdd", "HEMult",
                                         "Rotate", "Rescale"}
        assert "GME" in TABLE8 and "Baseline MI100" in TABLE8


class TestRtlModel:
    def test_three_extensions(self):
        results = synthesize_all()
        assert set(results) == {"cNoC", "MOD", "WMAC"}

    def test_cnoc_dominates_area(self):
        results = synthesize_all()
        assert results["cNoC"].area_mm2 > results["MOD"].area_mm2
        assert results["cNoC"].area_mm2 > results["WMAC"].area_mm2

    def test_power_positive_and_bounded(self):
        for result in synthesize_all().values():
            assert 0 < result.power_w < 100
