"""Figure 7: cumulative speedup per extension (Baseline..2xLDS)."""

from __future__ import annotations

from repro.gme.features import figure7_configs
from repro import engine


def run() -> dict:
    """{workload: [(feature_name, cumulative_speedup), ...]}."""
    configs = figure7_configs()
    out = {}
    for name, plan in engine.workload_plans().items():
        cycles = [plan.simulate(features).cycles for features in configs]
        out[name] = [(features.name, cycles[0] / c)
                     for features, c in zip(configs, cycles)]
    return out
