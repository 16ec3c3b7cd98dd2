"""Figure 8: on-chip memory (LDS) size exploration."""

from __future__ import annotations

from repro.gme.features import GME_FULL
from repro import engine

#: LDS sizes swept, in MB (paper sweeps 7.5 -> ~30 MB; 15.5 MB is the knee).
LDS_SIZES_MB = (7.5, 11.5, 15.5, 19.5, 23.5, 27.5, 31.5)


def run() -> dict:
    """{workload: [(lds_mb, speedup_vs_7.5), ...]} on full GME."""
    out = {}
    for name, plan in engine.workload_plans().items():
        cycles = [plan.simulate(GME_FULL.with_lds_scale(size / 7.5)).cycles
                  for size in LDS_SIZES_MB]
        out[name] = [(size, cycles[0] / c)
                     for size, c in zip(LDS_SIZES_MB, cycles)]
    return out
