"""Export engine pipeline wall-times as JSON (the BENCH_pipeline artifact).

Times the three stages of the Program -> Plan -> Run facade per
registered workload:

* **compile** — cold (symbolic trace + pass pipeline + lowering +
  validation, cache cleared first) and warm (the memoized-plan hit that
  feature sweeps rely on);
* **simulate** — one BlockSim run each under Baseline and full GME (the
  plan's first LABS run, which partitions the graph), then full GME at
  2x and 4x the LDS: further LABS configurations of the same plan, which
  must reuse the plan's block order and so cost at most half the first;
* **profile** — per-HE-op cycle attribution under full GME.

CI uploads the file from the experiments-smoke lane so the compile and
simulate cost trajectory of the measurement stack is tracked across PRs.

Usage::

    python benchmarks/export_pipeline_bench.py --out BENCH_pipeline.json
    python benchmarks/export_pipeline_bench.py --params paper --out -
"""

from __future__ import annotations

import argparse
import time

from repro import engine
from repro.experiments.export import envelope, write_json
from repro.fhe.params import CkksParameters
from repro.gme.features import BASELINE, GME_FULL
from repro.workloads import compile_workload, workload_names

PARAM_SETS = {
    "test": CkksParameters.test,
    "paper": CkksParameters.paper,
}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench(params_name: str = "test") -> dict:
    params = PARAM_SETS[params_name]()
    out: dict = envelope("bench.pipeline", params=params_name,
                         ring_degree=params.ring_degree,
                         max_level=params.max_level, workloads={})
    for name in workload_names():
        engine.clear_plan_cache()
        plan, cold = _timed(lambda: compile_workload(name, params))
        again, warm = _timed(lambda: compile_workload(name, params))
        assert again is plan, "plan cache must return the same object"
        record: dict = {
            "compile_cold_seconds": cold,
            "compile_warm_seconds": warm,
            "trace_ops": len(plan.trace),
            "nodes": plan.graph.number_of_nodes(),
            "simulate": {},
        }
        for features in (BASELINE, GME_FULL):
            label = features.name or "Baseline"
            metrics, seconds = _timed(lambda: plan.simulate(features))
            record["simulate"][label] = {"seconds": seconds,
                                         "cycles": metrics.cycles}
        profile, seconds = _timed(lambda: plan.profile(GME_FULL))
        record["profile"] = {
            "seconds": seconds,
            "ops_attributed": len(profile.ops),
            "total_cycles": profile.total_cycles,
        }
        assert profile.total_cycles == \
            record["simulate"][GME_FULL.name]["cycles"], \
            "profile totals must equal simulate totals"
        first = record["simulate"][GME_FULL.name]["seconds"]
        # The faster of two further LABS configurations: the first run
        # happens once per plan, these can be repeated against noise.
        second = min(
            _timed(lambda: plan.simulate(GME_FULL.with_lds_scale(scale)))[1]
            for scale in (2.0, 4.0))
        record["second_labs_config"] = {"seconds": second,
                                        "ratio_to_first": second / first}
        assert second <= 0.5 * first, \
            f"{name}: a second LABS configuration took {second:.4f}s " \
            f"against {first:.4f}s for the first; the plan must " \
            "schedule once per sweep"
        out["workloads"][name] = record
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_pipeline.json",
                        help="output path ('-' for stdout)")
    parser.add_argument("--params", choices=sorted(PARAM_SETS),
                        default="test",
                        help="parameter preset (default: test — the "
                        "tiny smoke configuration)")
    args = parser.parse_args(argv)
    result = bench(args.params)
    write_json(result, args.out)
    if args.out == "-":
        return
    for name, record in result["workloads"].items():
        print(f"{name:8s} compile {record['compile_cold_seconds']:.3f}s "
              f"(warm {record['compile_warm_seconds'] * 1e6:.0f}us), "
              f"profile {record['profile']['seconds']:.3f}s, second LABS "
              f"config {record['second_labs_config']['ratio_to_first']:.2f}"
              "x the first")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
