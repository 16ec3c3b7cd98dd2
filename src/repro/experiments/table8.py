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
