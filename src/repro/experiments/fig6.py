"""Figure 6: per-feature architectural metric profiles (cumulative)."""

from __future__ import annotations

from repro.gme.features import cumulative_configs
from repro import engine


def run() -> dict:
    """{workload: {feature_name: {metric: value}}}, Figure 6 ladder."""
    plans = engine.workload_plans()
    out = {}
    for name, plan in plans.items():
        out[name] = {}
        for features in cumulative_configs():
            metrics = plan.simulate(features)
            out[name][features.name] = {
                "cu_utilization": metrics.cu_utilization,
                "avg_cpt": metrics.avg_cpt,
                "dram_bw_utilization": metrics.dram_bw_utilization,
                "dram_traffic_gb": metrics.dram_bytes / 1e9,
                "l1_utilization": metrics.l1_utilization,
                "cpi": metrics.cpi,
            }
    return out
