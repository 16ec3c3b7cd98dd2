"""Table 8: workload execution times (T_A.S., Boot, HE-LR, ResNet-20).

Workload plans come from the engine front door
(:func:`repro.engine` ``workload_plans``): evaluator programs
compiled by :mod:`repro.engine` and simulated per feature set.
"""

from __future__ import annotations

from repro.baselines import TABLE8
from repro.blocksim.metrics import amortized_mult_time_per_slot_ns
from repro.fhe.params import CkksParameters
from repro.gme.features import BASELINE, GME_FULL
from repro import engine

from .table7 import run as run_table7


def run() -> dict:
    """Returns {config: {metric: (measured, paper)}} for our two rows."""
    params = CkksParameters.paper()
    plans = engine.workload_plans()
    table7 = run_table7()
    out = {}
    for label, features, paper_row in (
            ("Baseline MI100", BASELINE, TABLE8["Baseline MI100"]),
            ("GME", GME_FULL, TABLE8["GME"])):
        times = {name: plan.simulate(features).time_ms()
                 for name, plan in plans.items()}
        mult_us = table7["HEMult"]["baseline" if features == BASELINE
                                   else "gme"][0]
        tas = amortized_mult_time_per_slot_ns(
            times["boot"], mult_us, usable_levels=params.boot_levels,
            num_slots=params.num_slots)
        out[label] = {
            "tas_ns": (tas, paper_row["tas_ns"]),
            "boot_ms": (times["boot"], paper_row["boot_ms"]),
            "helr_ms": (times["helr"], paper_row["helr_ms"]),
            "resnet_ms": (times["resnet"], paper_row["resnet_ms"]),
        }
    return out


def comparator_rows() -> dict:
    """Published rows (source=paper) for the full Table 8."""
    return {k: v for k, v in TABLE8.items()
            if k not in ("Baseline MI100", "GME")}


def headline_speedups(rows: dict | None = None) -> dict:
    """The paper's headline claims derived from Table 8."""
    rows = rows or run()
    gme = rows["GME"]
    base = rows["Baseline MI100"]
    published = TABLE8
    return {
        "gme_vs_baseline_boot": base["boot_ms"][0] / gme["boot_ms"][0],
        "gme_vs_100x_boot": published["100x"]["boot_ms"]
        / gme["boot_ms"][0],
        "gme_vs_100x_helr": published["100x"]["helr_ms"]
        / gme["helr_ms"][0],
        "gme_vs_lattigo_boot": published["Lattigo"]["boot_ms"]
        / gme["boot_ms"][0],
        "gme_vs_lattigo_helr": published["Lattigo"]["helr_ms"]
        / gme["helr_ms"][0],
        "gme_vs_fab_boot": published["FAB"]["boot_ms"]
        / gme["boot_ms"][0],
        "gme_vs_fab_helr": published["FAB"]["helr_ms"]
        / gme["helr_ms"][0],
        "gme_vs_f1_helr": published["F1"]["helr_ms"] / gme["helr_ms"][0],
        "ark_vs_gme_boot": gme["boot_ms"][0]
        / published["ARK"]["boot_ms"],
    }


def main() -> None:
    rows = run()
    print("Table 8: workload execution times")
    print(f"{'accelerator':16s} {'T_A.S.(ns)':>22s} {'Boot(ms)':>22s} "
          f"{'HE-LR(ms)':>22s} {'ResNet(ms)':>22s}")
    for label, cells in rows.items():
        parts = []
        for key in ("tas_ns", "boot_ms", "helr_ms", "resnet_ms"):
            m, p = cells[key]
            parts.append(f"{m:8.1f} (paper {p:7.1f})")
        print(f"{label:16s} " + " ".join(parts))
    print("\npublished comparator rows (source=paper):")
    for name, row in comparator_rows().items():
        print(f"  {name:14s} {row}")
    print("\nheadline speedups:")
    for claim, value in headline_speedups(rows).items():
        print(f"  {claim}: {value:.1f}x")


if __name__ == "__main__":
    main()
