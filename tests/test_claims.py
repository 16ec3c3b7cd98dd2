"""The claims ledger: every row inside its band, every paper cell covered,
every fit a named model constant, the README its rendering, and Table 8's
rows the very cells ``bench`` scores."""

import pathlib
import re
import statistics

import pytest

import repro.experiments
from repro.baselines.published import (FIG8_SPEEDUP_15P5,
                                       TABLE6_GME_EXTENSIONS, TABLE7_US,
                                       TABLE8, TABLE9)
from repro.blocksim import calibration
from repro.experiments import table8
from repro.experiments.claims import Band, ledger, render
from repro.gpusim import isa
from repro.rtlmodel import components

LEDGER = ledger()
BY_ID = {claim.id: claim for claim in LEDGER}


@pytest.mark.parametrize("claim", LEDGER, ids=lambda claim: claim.id)
def test_claim(claim):
    assert claim.holds, (f"repo {claim.repo!r} vs paper {claim.paper!r}: "
                         f"outside {claim.band}")


def test_ids_are_unique():
    assert len(BY_ID) == len(LEDGER)


def test_every_paper_cell_has_a_row():
    numeric = {f"Table 4/{profile.value}/{op}"
               for profile, ops in isa.PAPER_TABLE4.items() for op in ops}
    numeric |= {f"Table 6/{ext}/{metric}" for ext in TABLE6_GME_EXTENSIONS
                for metric in ("area_mm2", "power_w", "fmax_ghz")}
    numeric |= {f"Table 7/{block}/{column}" for block in TABLE7_US["GME"]
                for column in ("baseline", "gme", "speedup_vs_baseline",
                               "speedup_vs_100x", "speedup_vs_tfhe")}
    numeric |= {f"Table 8/{label}/{metric}"
                for label in ("Baseline MI100", "GME")
                for metric in TABLE8["GME"] if metric != "arch"}
    numeric |= {f"Fig. 8/{workload}/15.5 MB" for workload in FIG8_SPEEDUP_15P5}
    assert len(numeric) == 54 and numeric <= set(BY_ID)
    verdicts = {f"Table 9/{name}/{ext}"
                for name, exts in TABLE9.items() for ext in exts}
    assert len(verdicts) == 44 and verdicts <= set(BY_ID)
    artifacts = {claim.artifact for claim in LEDGER}
    assert {"Fig. 6", "Fig. 7", "Table 8 speedups", "Sec 4.3",
            "Sec 1"} <= artifacts


def test_sources_are_the_three_kinds():
    assert {claim.source for claim in LEDGER} == {"model", "classifier",
                                                  "published"}


def test_bands_keep_open_and_closed_bounds_apart():
    assert not Band(lo=1).holds(1, None)
    assert Band(lo=1, closed=True).holds(1, None)
    assert Band(rel=0.1).holds(11, 10) and not Band(rel=0.1).holds(12, 10)
    assert Band().holds("yes", "yes") and not Band().holds("no", "yes")
    assert [str(b) for b in (Band(rel=0.12), Band(lo=5, hi=16),
                             Band(lo=1, closed=True), Band(hi=0.5),
                             Band())] == ["±12%", "(5, 16)", "[1, ∞)",
                                          "(-∞, 0.5)", "= paper"]


# -- fitted vs derived --------------------------------------------------------

HOMES = {"calibration": calibration, "isa": isa, "components": components}


def test_every_fitted_name_is_a_model_constant():
    for claim in LEDGER:
        for name in claim.fitted:
            home, _, constant = name.partition(".")
            assert hasattr(HOMES[home], constant), (claim.id, name)


def _calibrated_constants() -> set[str]:
    """The ``calibration`` constants whose comment says they were
    calibrated (a comment block covers the assignments under it)."""
    stated, comment = set(), ""
    path = pathlib.Path(calibration.__file__)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comment += line
        elif not line.strip():
            comment = ""
        elif (match := re.match(r"([A-Z_]+) = ", line)) \
                and re.search(r"\b[Cc]alibrated\b", comment):
            stated.add(f"calibration.{match[1]}")
    return stated


def test_the_calibrated_constants_are_the_fitted_ones():
    """Both ways: a constant calibrated on a cell names it, and a row
    fitted on a calibration constant is one its comment owns."""
    fitted = {name for claim in LEDGER for name in claim.fitted
              if name.startswith("calibration.")}
    assert len(_calibrated_constants()) >= 6
    assert _calibrated_constants() == fitted


# -- the generated README table -----------------------------------------------

def test_the_readme_carries_the_rendered_ledger():
    readme = (pathlib.Path(repro.experiments.__file__).parent
              / "README.md").read_text(encoding="utf-8")
    begin, end = "<!-- claims:begin -->\n", "\n<!-- claims:end -->"
    checked_in = readme[readme.index(begin) + len(begin):readme.index(end)]
    assert checked_in == render(LEDGER)


# -- the ledger and bench score the same Table 8 cells ------------------------

def test_table8_model_rows_are_the_cells_bench_scores():
    rows = [claim for claim in LEDGER
            if claim.artifact == "Table 8" and claim.source == "model"]
    cells = [cell for row in table8.run().values() for cell in row.values()]
    assert [(claim.repo, claim.paper) for claim in rows] == cells
    # bench's experiments.sim_error_vs_paper, from the same table8.run()
    assert statistics.fmean(claim.error for claim in rows) \
        == 0.08983485227359317
