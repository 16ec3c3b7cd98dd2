"""Figure 8: on-chip memory (LDS) size exploration."""

from __future__ import annotations

from repro.gme.features import GME_FULL
from repro import engine

#: LDS sizes swept, in MB (paper sweeps 7.5 -> ~30 MB; 15.5 MB is the knee).
LDS_SIZES_MB = (7.5, 11.5, 15.5, 19.5, 23.5, 27.5, 31.5)

#: Paper speedups at 15.5 MB relative to 7.5 MB.
PAPER_15P5 = {"boot": 1.74, "helr": 1.53, "resnet": 1.51}


def run() -> dict:
    """{workload: [(lds_mb, speedup_vs_7.5), ...]} on full GME."""
    plans = engine.workload_plans()
    out = {}
    for name, plan in plans.items():
        cycles = []
        for size in LDS_SIZES_MB:
            features = GME_FULL.with_lds_scale(size / 7.5)
            cycles.append(plan.simulate(features).cycles)
        out[name] = [(size, cycles[0] / c)
                     for size, c in zip(LDS_SIZES_MB, cycles)]
    return out


def main() -> None:
    rows = run()
    print("Figure 8: LDS size sweep (speedup vs 7.5 MB, full GME)")
    header = f"{'workload':10s}" + "".join(f"{s:>8.1f}" for s in
                                           LDS_SIZES_MB)
    print(header + "   paper@15.5")
    for workload, sweep in rows.items():
        cells = "".join(f"{speedup:8.2f}" for _, speedup in sweep)
        print(f"{workload:10s}{cells}   {PAPER_15P5[workload]:.2f}x")


if __name__ == "__main__":
    main()
