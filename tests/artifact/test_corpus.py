"""Golden-corpus integrity: the checked-in artifacts match the catalog.

The corpus under ``tests/artifact/corpus/`` is the structural regression
gate: every catalog workload, compiled at paper parameters, must diff
clean against its golden artifact.  ``test_catalog_matches_goldens`` and
``test_cli_check_and_regen`` are that diff, through the library and
through ``python -m repro.artifact corpus``; the rest are the failure
modes (missing golden, stale golden after a workload change) the gate
relies on to actually fail.
"""

from repro import engine
from repro.artifact import (DEFAULT_CORPUS_DIR, check_corpus, corpus_params,
                            corpus_path, read_artifact, regen_corpus)
from repro.artifact.corpus import CorpusCheck


class TestCheckedInCorpus:
    def test_covers_every_catalog_workload(self):
        for name in engine.workload_names():
            assert corpus_path(name).exists(), (
                f"golden artifact for {name!r} missing; run "
                "`python -m repro.artifact corpus --regen`")

    def test_catalog_matches_goldens(self):
        results = check_corpus()
        assert [r.name for r in results] == engine.workload_names()
        for result in results:
            assert result.ok, "\n".join(result.detail)

    def test_goldens_are_paper_scale_plans(self):
        expected = corpus_params()
        for name in engine.workload_names():
            artifact = read_artifact(str(corpus_path(name)))
            assert artifact.kind == "plan"
            assert artifact.params == expected
            # A plan is its trace: no block graph, no retired type-3 block.
            assert list(artifact.block_sizes) == ["HEADER", "TRACE_OPS",
                                                  "PROVENANCE"]
            assert artifact.skipped_blocks == []

    def test_regen_is_byte_stable(self, tmp_path):
        """Unchanged workloads rewrite identical bytes — `--regen` on a
        clean tree is a no-op diff, which is what makes the goldens
        reviewable."""
        regen_corpus(tmp_path)
        for name in engine.workload_names():
            fresh = (tmp_path / f"{name}.rpa").read_bytes()
            golden = corpus_path(name).read_bytes()
            assert fresh == golden, f"{name}: regen bytes differ"


class TestCorpusChecker:
    def test_missing_golden_reports_error(self, tmp_path):
        results = check_corpus(tmp_path, names=["boot"])
        assert len(results) == 1
        assert not results[0].ok
        assert "missing" in results[0].error
        assert "--regen" in results[0].error

    def test_unreadable_golden_reports_error(self, tmp_path):
        (tmp_path / "boot.rpa").write_bytes(b"corrupt")
        results = check_corpus(tmp_path, names=["boot"])
        assert not results[0].ok
        assert "unreadable" in results[0].error

    def test_stale_golden_reports_delta(self, tmp_path):
        """A golden from different parameters (a stand-in for 'the
        workload changed') carries a rendered per-block diff."""
        from repro.fhe.params import CkksParameters
        plan = engine.compile("boot", CkksParameters.test())
        plan.save(str(tmp_path / "boot.rpa"))
        results = check_corpus(tmp_path, names=["boot"])
        assert not results[0].ok
        assert results[0].error is None
        assert results[0].diff
        assert any("params_fingerprint" in line
                   for line in results[0].detail)

    def test_cli_check_and_regen(self, tmp_path, capsys):
        from repro.artifact.__main__ import main
        assert main(["corpus", "--dir", str(tmp_path)]) == 1
        assert "ERROR" in capsys.readouterr().out
        assert main(["corpus", "--regen", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["corpus", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == len(engine.workload_names())

    def test_corpus_check_dataclass_ok_logic(self):
        from pathlib import Path
        ok = CorpusCheck(name="x", path=Path("x.rpa"))
        assert ok.ok
        err = CorpusCheck(name="x", path=Path("x.rpa"), error="gone")
        assert not err.ok

    def test_default_dir_is_the_checked_in_one(self):
        assert DEFAULT_CORPUS_DIR.parts[-3:] == ("tests", "artifact",
                                                 "corpus")
