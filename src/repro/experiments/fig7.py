"""Figure 7: cumulative speedup per extension (Baseline..2xLDS)."""

from __future__ import annotations

from repro.gme.features import figure7_configs
from repro import engine


def run() -> dict:
    """{workload: [(feature_name, cumulative_speedup), ...]}."""
    plans = engine.workload_plans()
    out = {}
    for name, plan in plans.items():
        cycles = []
        labels = []
        for features in figure7_configs():
            cycles.append(plan.simulate(features).cycles)
            labels.append(features.name or "Baseline")
        out[name] = [(label, cycles[0] / c)
                     for label, c in zip(labels, cycles)]
    return out


def main() -> None:
    rows = run()
    print("Figure 7: cumulative speedup (each bar includes the previous "
          "features)")
    for workload, ladder in rows.items():
        print(f"\n  {workload}")
        prev = 1.0
        for label, cum in ladder:
            print(f"    {label:30s} {cum:6.2f}x  (+{cum / prev:4.2f}x)")
            prev = cum
    print("\npaper shape: monotone; LABS adds >1.5x; 2xLDS adds "
          "1.5-1.74x.  See EXPERIMENTS.md for the absolute-scale "
          "discussion (the paper's Figure 7 axis tops at 3.5x while its "
          "Table 8 reports 12.3x end-to-end; our ladder is consistent "
          "with Table 8).")


if __name__ == "__main__":
    main()
