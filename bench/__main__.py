"""Command line of the benchmark (``python3 -m bench``).

One workload, one JSON result line (what ``BENCHMARK.json``'s command
runs)::

    python3 -m bench --workload score_toy_1t --seed 7 --seconds 10 --trace 0

The whole set, each workload in a fresh subprocess::

    python3 -m bench --seed 2023 --out BENCH.json [--traced]
                     [--only a,b] [--scale 0.5]

Two result files against each other::

    python3 -m bench --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from .report import THREAD_PINS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _import_repo() -> None:
    """Put the checkout's ``src/`` on the path, or say why we cannot run."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"bench: {source}/repro not found — run from a checkout "
                 "of the repository")
    if os.environ.get("REPRO_FHE_BACKEND", "").strip():
        sys.exit("bench: REPRO_FHE_BACKEND is set; unset it (the benchmark "
                 "measures the default backend and selects its span "
                 "backend through CkksParameters)")
    sys.path.insert(0, source)


def result_line(doc: dict) -> str:
    """The one-line result ``BENCHMARK.json``'s contract asks for."""
    from .metrics import GATED, PER_LAYER
    wanted = PER_LAYER if doc["traced"] else GATED
    return json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m.name: {"value": doc["metrics"][m.name] or 0,
                             "unit": m.unit} for m in wanted}})


def pin_to_one_cpu() -> None:
    """Keep this process and every thread it starts on one CPU.

    Server, clients and worker threads take turns anyway (callers wait
    for their replies), and on a few cores of a shared host threads that
    wake each other across CPUs measure the hypervisor: unpinned, the
    four-tenant lane serves a third of what it serves pinned and the
    simulated lane moves threefold from minute to minute (README.md,
    "Steadiness").  One busy CPU also stays inside the sandbox's CPU
    quota, so a long sequence of runs is not throttled halfway.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args) -> int:
    pin_to_one_cpu()
    _import_repo()
    from .loadgen import WindowTooShort
    from .run import run_workload
    try:
        doc = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), spans_path=args.spans)
    except WindowTooShort as exc:
        sys.exit(f"bench: {exc}")
    if args.detail:
        with open(args.detail, "w") as f:
            json.dump(doc, f, indent=1)
    for error in doc["errors"]:
        print(f"bench: {doc['workload']}: {error}", file=sys.stderr)
    print(result_line(doc))
    return 0 if doc["correct"] else 1


def run_set(args) -> int:
    from .metrics import MIN_REAL_QUERIES, REAL_LANES
    from .report import envelope, render_layers, render_table
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.only:
        only = args.only.split(",")
        unknown = set(only) - set(names)
        if unknown:
            sys.exit(f"bench: unknown workload(s) {sorted(unknown)}; "
                     f"known: {names}")
        names = [n for n in names if n in only]
    seconds = spec["run_seconds"] * args.scale
    doc = {"kind": "bench", "seed": args.seed, "seconds": seconds,
           "workloads": {}}
    status = 0
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_",
                                     dir=ROOT) as folder:
        detail = os.path.join(folder, "detail.json")
        for name in names:
            runs = doc["workloads"][name] = {}
            for mode in ("untraced", "traced")[:2 if args.traced else 1]:
                print(f"bench: {name} ({mode}) ...", file=sys.stderr)
                done = subprocess.run(
                    [sys.executable, "-m", "bench", "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(seconds),
                     "--trace", str(int(mode == "traced")),
                     "--detail", detail],
                    cwd=ROOT, stdout=subprocess.DEVNULL)
                if not os.path.exists(detail):
                    sys.exit(f"bench: {name} ({mode}) produced no result "
                             f"(exit code {done.returncode})")
                with open(detail) as f:
                    run = runs[mode] = json.load(f)
                os.remove(detail)
                served = run["attempted"] - run["failed"]
                if (mode == "untraced" and name in REAL_LANES
                        and served < MIN_REAL_QUERIES):
                    sys.exit(f"bench: {name} served {served} queries in "
                             f"{seconds:g} s; a real-lane window needs "
                             f"{MIN_REAL_QUERIES} — raise --scale")
                status |= done.returncode
    doc["envelope"] = envelope()
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
    print(render_table(doc))
    if args.traced:
        print()
        print(render_layers(doc))
    return status


def run_compare(args) -> int:
    from .report import compare, load, render_compare
    rows, bad = compare(load(args.compare[0]), load(args.compare[1]))
    print(render_compare(rows))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload and "
                        "print its JSON result line")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float,
                        help="measured window of a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from the span probes")
    parser.add_argument("--detail", metavar="PATH",
                        help="also write the full result document here")
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1: write the raw spans (JSONL)")
    parser.add_argument("--out", default="BENCH.json",
                        help="whole-set mode: where the report goes")
    parser.add_argument("--traced", action="store_true",
                        help="whole-set mode: add a traced run per workload")
    parser.add_argument("--only", metavar="W[,W...]",
                        help="whole-set mode: just these workloads")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="whole-set mode: multiply every window")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="judge result file B against A")
    args = parser.parse_args(argv)
    # numpy reads these when it is first imported (nothing above imports
    # it): one compute thread, whatever the caller's shell says.  The
    # per-workload subprocesses inherit them.
    os.environ.update(dict.fromkeys(THREAD_PINS, "1"))
    if args.compare:
        return run_compare(args)
    if args.workload:
        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            sys.exit(f"bench: unknown workload {args.workload!r}; "
                     f"known: {names}")
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        return run_one(args)
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
