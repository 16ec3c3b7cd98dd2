"""Smoke + shape tests for the experiment harnesses and support models."""

import pytest

from repro.baselines import CPU_LATTIGO, GPU_100X, TABLE7_US, TABLE8
from repro.blocksim.blocks import BlockType
from repro.experiments import table4, table6, table7, table9
from repro.rtlmodel import synthesize_all


class TestExperimentHarnesses:
    def test_table4_shape(self):
        rows = table4.run(count=500)
        assert len(rows) == 3
        for cells in rows.values():
            assert set(cells) == {"mod_red", "mod_add", "mod_mul"}

    def test_table6_within_band(self):
        for name, metrics in table6.run().items():
            for metric, (modeled, paper) in metrics.items():
                assert modeled == pytest.approx(paper, rel=0.15), \
                    f"{name}/{metric}"

    def test_table7_gme_always_wins(self):
        for name, cells in table7.run().items():
            assert cells["gme"][0] < cells["baseline"][0], name

    def test_table9_matches_paper_exactly(self):
        for name, cells in table9.run().items():
            for ext, (classified, paper) in cells.items():
                assert classified == paper, f"{name}/{ext}"

    def test_runner_module_lists_all(self):
        from repro.experiments.runner import ALL, HARNESSES
        assert len(ALL) == 9
        assert set(HARNESSES) == {"table4", "table6", "table7", "table8",
                                  "table9", "fig6", "fig7", "fig8",
                                  "opmix"}


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
