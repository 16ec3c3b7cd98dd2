"""Export ``.rpa`` artifact save/load costs as JSON (BENCH_artifact).

For every catalog workload at paper parameters (N=2^16) this measures
the artifact round trip against a row-per-op JSON baseline:

* **size** — ``.rpa`` bytes vs the bytes of the same trace rendered as
  JSON lines (a header line, then one object per op with every
  :class:`~repro.trace.TraceOp` field), computed here in memory: the
  row-oriented text form the columnar tables replace (the artifact also
  carries the lowered DAG and provenance the JSON lines cannot);
* **wall time** — plan save, plan load (including DAG revalidation);
* **ratio** — JSON-lines bytes / artifact bytes.  CI runs with
  ``--assert-ratio 3.0``: the columnar container must stay at least 3x
  smaller than the JSON lines at paper scale, so the compactness claim
  is enforced, not just reported.

Usage::

    python benchmarks/export_artifact_bench.py --out BENCH_artifact.json
    python benchmarks/export_artifact_bench.py --assert-ratio 3.0 --out -
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

from repro import engine
from repro.artifact import load_plan, read_artifact
from repro.experiments.export import envelope, write_json
from repro.fhe.params import CkksParameters
from repro.trace import OpTrace


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _tagged(value: object) -> object:
    """JSON for the one non-JSON meta scalar, a complex operand."""
    if isinstance(value, complex):
        return {"__complex__": [value.real, value.imag]}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def json_lines_bytes(trace: OpTrace) -> int:
    """Bytes of ``trace`` as JSON lines: a header with the name and the
    full parameter set, then one object per op, one per line."""
    header = {"format": "optrace", "version": 1, "name": trace.name,
              "output_op_id": trace.output_op_id,
              "params": dataclasses.asdict(trace.params)}
    rows = [header] + [{**vars(op), "kind": op.kind.value,
                        "inputs": list(op.inputs)} for op in trace.ops]
    return sum(len(json.dumps(row, default=_tagged)) + 1 for row in rows)


def workload_lane(name: str, params: CkksParameters,
                  directory: str) -> dict:
    """Round-trip one catalog workload; return the measured row."""
    plan = engine.compile(name, params)
    rpa = os.path.join(directory, f"{name}.rpa")

    save_s, _ = _timed(lambda: plan.save(rpa))
    load_s, loaded = _timed(lambda: load_plan(rpa))

    assert loaded.trace == plan.trace, f"{name}: round trip not exact"
    artifact = read_artifact(rpa)
    rpa_bytes = os.path.getsize(rpa)
    jsonl_bytes = json_lines_bytes(plan.trace)
    return {
        "workload": name,
        "ops": len(plan.trace.ops),
        "nodes": plan.graph.number_of_nodes(),
        "edges": plan.graph.number_of_edges(),
        "fingerprint": artifact.fingerprint,
        "rpa_bytes": rpa_bytes,
        "jsonl_bytes": jsonl_bytes,
        "jsonl_over_rpa": jsonl_bytes / rpa_bytes,
        "block_bytes": artifact.block_sizes,
        "save_s": save_s,
        "load_s": load_s,
    }


def run_bench(params: CkksParameters | None = None) -> dict:
    params = params or CkksParameters.paper()
    rows = []
    with tempfile.TemporaryDirectory() as directory:
        for name in engine.workload_names():
            rows.append(workload_lane(name, params, directory))
    return {
        "params": {"ring_degree": params.ring_degree,
                   "max_level": params.max_level},
        "workloads": rows,
        "min_jsonl_over_rpa": min(r["jsonl_over_rpa"] for r in rows),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_artifact.json",
                        help="output path ('-' for stdout)")
    parser.add_argument("--assert-ratio", type=float, default=None,
                        metavar="R",
                        help="fail unless every workload's JSON-lines/rpa "
                        "size ratio is >= R")
    args = parser.parse_args(argv)

    results = run_bench()
    doc = envelope("bench.artifact", artifact=results)
    write_json(doc, args.out)

    if args.assert_ratio is not None:
        worst = results["min_jsonl_over_rpa"]
        if worst < args.assert_ratio:
            print(f"FAIL: worst JSON-lines/rpa size ratio {worst:.2f} is "
                  f"below the floor {args.assert_ratio}",
                  file=sys.stderr)
            return 1
        print(f"size ratio floor ok: worst {worst:.2f} "
              f">= {args.assert_ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
