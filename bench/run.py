"""Run one workload in this process and return its result document.

An untraced run yields the end-to-end metrics.  A traced run spends half
its window untraced and half on the span probes of :mod:`bench.probes`
and yields the per-layer metrics, the tracing overhead among them.
Either way the outputs are checked: a wrong, refused or non-repeatable
result is a failed op.
"""

from __future__ import annotations

import asyncio
import math
import os
import resource
import statistics
import tempfile
from time import perf_counter, perf_counter_ns, process_time

import numpy as np

from repro import engine
from repro.analysis import analyze_trace
from repro.experiments import table8
from repro.fhe.params import CkksParameters
from repro.gme.features import BASELINE, GME_FULL, cumulative_configs
from repro.serve import Batch, PlanServer, Query, clear_serve_caches

from .loadgen import Window, drive, reserve_singly
from .metrics import (BACKEND_KERNELS, CATALOG, EVALUATOR_METHODS,
                      PER_LAYER, REPORTED)
from .probes import SpanBackend, assert_matches_real
from .spans import SpanRecorder, concurrency_mean, summarize
from .stats import quiet, segment_spread, timing_summary
from .workloads import (CASES, OFFLINE_CASE, Inputs, Rig, ServeCase,
                        cold_setup, make_inputs, oracle_misses,
                        serve_config)

#: Cold set-ups come in two rounds, one before the window and one after
#: the checks, so that one slow spell of the machine cannot cover them
#: all.  A round goes on while its set-ups fit into SETUP_BUDGET_S, up to
#: MAX_SETUPS.  ``setup_s`` is the fastest of both rounds: a set-up does
#: the same work every time and nothing makes it faster than it is, while
#: lazy imports slow the first one of a process down and the machine some
#: of the others (README.md, "Steadiness").
MAX_SETUPS, SETUP_BUDGET_S = 5, 1.25

#: ``offline_paper`` walks the catalog at least this often, however
#: short the window: a step costs what its fastest run over the passes
#: took, and over three passes (what 15 s hold) one slow spell of the
#: machine too often covers a one-second step every time.
MIN_PASSES = 4

#: A run is marked noisy beyond these (quiet-side over median segment
#: throughput, calibration drift, share of the machine's CPU time the
#: hypervisor took away).
NOISY_SPREAD = 1.25
NOISY_DRIFT = 0.05
NOISY_STEAL = 0.05

#: Span self-times must add up to their ``run`` roots this closely.
ADDITIVITY = 0.02

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def calibrate() -> float:
    """ns per element of a fixed uint64 multiply-reduce kernel: says how
    fast this machine is right now, whatever the repo's code does."""
    values = np.arange(1, (1 << 16) + 1, dtype=np.uint64)
    modulus = np.uint64((1 << 31) - 1)
    out = np.empty_like(values)     # no allocation inside the timed part
    times = []
    for _ in range(101):
        begin = perf_counter_ns()
        np.multiply(values, values, out=out)
        np.remainder(out, modulus, out=out)
        times.append(perf_counter_ns() - begin)
    return statistics.median(times) / len(values)


def time_setups(setup, at_least: int) -> tuple[list[float], object]:
    """One round of cold ``setup()``s: the seconds each took and what the
    last one built."""
    seconds: list[float] = []
    while len(seconds) < at_least or (
            len(seconds) < MAX_SETUPS and sum(seconds) < SETUP_BUDGET_S):
        begin = perf_counter()
        built = setup()
        seconds.append(perf_counter() - begin)
    return seconds, built


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_ticks() -> tuple[int, int]:
    """(stolen, all) CPU ticks of the machine so far.  Stolen ticks are
    ones the hypervisor gave to someone else while this machine had work:
    a shared sandbox throttled after minutes of load shows up here, and
    nowhere in the process's own clocks."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(field) for field in f.readline().split()[1:9]]
    except OSError:
        return 0, 0
    return ticks[7], sum(ticks)


def guards(before: float, after: float, spread: float,
           ticks_before: tuple[int, int]) -> dict:
    """Whether the numbers of this run can be trusted."""
    drift = abs(after - before) / before
    stolen, ticks = (now - then for now, then in
                     zip(machine_ticks(), ticks_before))
    steal = stolen / ticks if ticks else 0.0
    why = []
    if spread > NOISY_SPREAD:
        why.append(f"quiet-side over median segment throughput "
                   f"{spread:.2f} > {NOISY_SPREAD}")
    if drift > NOISY_DRIFT:
        why.append(f"calibration drifted {drift:.1%} inside the window")
    if steal > NOISY_STEAL:
        why.append(f"the hypervisor stole {steal:.1%} of the machine's "
                   "CPU time during the run")
    return {"calib_ns_before": before, "calib_ns_after": after,
            "segment_spread": spread, "steal_share": steal,
            "noisy": bool(why), "why": why}


# ---------------------------------------------------------------------------
# serving workloads
# ---------------------------------------------------------------------------

def summarize_window(window: Window) -> dict:
    """Throughput, CPU and median latency as the quiet side of the
    window's segments; the latency tails over the whole window."""
    segments = window.segments()
    rates = [ops / wall for ops, wall, _, _ in segments]
    return {"throughput_ops_s": quiet(rates, "higher"),
            "cpu_ms_per_op": quiet([1e3 * cpu / ops
                                    for ops, _, cpu, _ in segments], "lower"),
            "latency_p50_s": quiet([latency for *_, latency in segments],
                                   "lower"),
            "latency": timing_summary(window.latencies().tolist()),
            "segments": len(segments),
            # What the neighbours let through: the plain figure a caller
            # of this sandbox saw over the whole window.
            "window_ops_s": sum(s[0] for s in segments)
            / sum(s[1] for s in segments),
            "segment_spread": segment_spread(rates)}


def verify_window(rig: Rig, inputs: Inputs, window: Window
                  ) -> tuple[int, int, list[str]]:
    """(attempted, failed, what failed) for one measured window."""
    case = rig.case
    completed, refused = window.completed(), window.refused()
    errors = sorted({f.error for f in refused})
    failed = len(refused)
    if case.real:
        misses = oracle_misses(inputs, window, completed)
        if misses:
            failed += misses
            errors.append(f"{misses} results missed the plaintext oracle")
        # Quantized serving promises the same bits under any batching:
        # re-serve a sample alone and hold the server to it.
        rows = sorted({completed[int(u * len(completed))]
                       for u in inputs.identity_sample})
        alone = PlanServer.real(rig.workload, rig.params,
                                config=serve_config(case, max_batch=1),
                                key_cache=rig.keys)
        changed = asyncio.run(reserve_singly(alone, inputs, window, rows))
        if changed:
            failed += changed
            errors.append(f"{changed} of {len(rows)} re-served queries "
                          "were not bit-identical at batch size 1")
    else:
        totals = rig.server.metrics.snapshot()
        lost = totals["submitted"] - totals["served"]
        if lost or totals["served"] != len(window.done):
            failed += max(lost, 1)
            errors.append(f"submitted {totals['submitted']}, served "
                          f"{totals['served']}, returned {len(window.done)}")
        if window.misshapen:
            failed += window.misshapen
            errors.append(f"{window.misshapen} results did not have the "
                          "one-slot shape")
    return len(completed) + len(refused), failed, errors


def run_serving(case: ServeCase, seed: int, seconds: float, traced: bool,
                spans_path: str | None) -> dict:
    inputs = make_inputs(case, seed)
    ticks_before = machine_ticks()
    calib_before = calibrate()
    setup_seconds, rig = time_setups(lambda: cold_setup(case), 2)
    samples = {"setup_s": setup_seconds, "setup_phases": rig.phases}
    window_s = seconds
    if traced:
        # Half the window on the plain deployment, half on the same
        # deployment rebuilt on the span probes.
        window_s = seconds / 2
        plain = summarize_window(asyncio.run(drive(rig, inputs, window_s)))
        recorder = SpanBackend.recorder = SpanRecorder()
    try:
        if traced:
            rig = cold_setup(case, recorder)
            if case.real:
                tenant = case.tenants()[0]
                assert_matches_real(rig.executor, Batch(
                    tenant=tenant, layout=rig.server.layout,
                    queries=[Query(tenant=tenant, values=inputs.pool[i])
                             for i in range(case.max_batch)]))
        window = asyncio.run(drive(rig, inputs, window_s))
    finally:
        SpanBackend.recorder = None
    calib_after = calibrate()
    summary = summarize_window(window)
    attempted, failed, errors = verify_window(rig, inputs, window)
    samples.update(latency=summary["latency"], segments=summary["segments"],
                   window_ops_s=summary["window_ops_s"])
    if traced:
        metrics, additivity = serve_layers(rig, window, recorder, summary)
        if additivity is not None and additivity > ADDITIVITY:
            failed += 1
            errors.append(f"span self-times miss their run spans by "
                          f"{additivity:.1%} (> {ADDITIVITY:.0%})")
        metrics.update(engine_probe(rig))
        metrics.update({
            "bench.tracing_overhead":
                plain["throughput_ops_s"] / summary["throughput_ops_s"],
            "bench.calib_ns_before": calib_before,
            "bench.calib_ns_after": calib_after,
            "bench.segment_spread": summary["segment_spread"],
        })
        if spans_path:
            recorder.write_jsonl(spans_path)
        samples.update(
            untraced_throughput_ops_s=plain["throughput_ops_s"],
            traced_throughput_ops_s=summary["throughput_ops_s"],
            additivity_gap=additivity)
    else:
        peak = peak_rss_mb()    # of the deployment that served the window
        setup_seconds += time_setups(lambda: cold_setup(case), 1)[0]
        metrics = {
            "throughput_ops_s": summary["throughput_ops_s"],
            "latency_p50_s": summary["latency_p50_s"],
            "cpu_ms_per_op": summary["cpu_ms_per_op"],
            "failed_share": failed / attempted,
            "setup_s": min(setup_seconds),
            "peak_rss_mb": peak,
            "sim_error_vs_paper": None,
        }
    return document(case.name, seed, seconds, traced, attempted, failed,
                    errors, metrics, samples,
                    guards(calib_before, calib_after,
                           summary["segment_spread"], ticks_before))


def serve_layers(rig: Rig, window: Window, recorder: SpanRecorder,
                 summary: dict) -> tuple[dict, float | None]:
    """Per-layer metrics of a traced window, and how far span self-times
    are from adding up to their ``run`` roots."""
    before, after = window.before, window.after
    batches = rig.executor.log.within(window.start, window.end)
    waits = [ran.entered - sent for ran in batches for sent in ran.submitted]
    runs = [ran.exited - ran.entered for ran in batches]
    # latency - queue wait - run, reply by reply: what the serve layer
    # spends admitting a query before it is stamped and delivering its
    # result after the run.
    logged = {id(result): (sent, ran.exited) for ran in batches
              for sent, result in zip(ran.submitted, ran.results)}
    own = []
    for row, result in enumerate(window.result_id):
        if result in logged:
            sent, exited = logged[result]
            own.append((sent - window.submitted[row])
                       + (window.done[row] - exited))
    if len(own) != len(waits):
        raise RuntimeError(
            f"{len(waits)} queries ran in logged batches but {len(own)} "
            "replies carry their results: the server no longer hands the "
            "executor's result objects through")
    served_batches = after["batches"] - before["batches"]
    occupancies = rig.server.metrics.occupancies[
        before["occupancy_samples"]:after["occupancy_samples"]]
    metrics = {
        "serve.batches": served_batches,
        "serve.mean_batch_size":
            (after["served"] - before["served"]) / served_batches,
        "serve.mean_occupancy": statistics.fmean(occupancies),
        "serve.queue_wait_p50_s": statistics.median(waits),
        "serve.run_p50_s": statistics.median(runs),
        "serve.self_ms_per_op": 1e3 * statistics.fmean(own),
        "serve.run_concurrency_mean": concurrency_mean(
            [(ran.entered, ran.exited) for ran in batches]),
        "serve.latency_p95_s": summary["latency"]["p95"],
        "serve.latency_p99_s": summary["latency"]["p99"],
        "serve.retries": after["retries"] - before["retries"],
        "serve.rejects": after["rejected"] - before["rejected"],
    }
    for counter in ("hits", "misses", "evictions"):
        key = f"keycache_{counter}"
        metrics[f"serve.{key}"] = after[key] - before[key] \
            if rig.keys is not None else None
    if not rig.case.real:
        return metrics, None

    tree = summarize(recorder.threads, "run", window.start, window.end)
    for stage in ("keys_get", "pack", "encrypt", "plan_execute", "decrypt",
                  "unpack"):
        metrics[f"exec.{stage}_ms"] = 1e3 * tree.per_root(
            f"exec.{stage}", "total_s")
    metrics["exec.unattributed_ms"] = 1e3 * tree.per_root("run")
    misses = rig.executor.miss_seconds
    metrics["keys.miss_ms"] = 1e3 * statistics.fmean(misses) \
        if misses else None
    metrics["engine.replay_self_ms"] = 1e3 * tree.per_root(
        "exec.plan_execute")
    metrics["engine.trace_ops"] = len(rig.executor.plan.trace.ops)
    for method in EVALUATOR_METHODS:
        name = f"evaluator.{method}"
        metrics[f"{name}.calls"] = tree.per_root(name, "calls")
        metrics[f"{name}.ms"] = 1e3 * tree.per_root(name, "total_s")
    for kernel in BACKEND_KERNELS:
        name = f"backend.{kernel}"
        metrics[f"{name}.calls"] = tree.per_root(name, "calls")
        metrics[f"{name}.self_ms"] = 1e3 * tree.per_root(name)
    metrics["backend.ntt_limb_rows"] = (
        tree.per_root("backend.ntt_forward", "value")
        + tree.per_root("backend.ntt_inverse", "value"))
    gap = abs(tree.self_seconds - tree.root_seconds) / tree.root_seconds
    return metrics, gap


def engine_probe(rig: Rig) -> dict:
    """Set-up costs of the engine layer, timed call by call."""
    plan = rig.executor.plan
    if rig.case.real:
        begin = perf_counter()
        analyze_trace(plan.trace, normalized=True, name=plan.name)
        return {"engine.compile_cold_s": rig.phases["plan"],
                "engine.lint_s": perf_counter() - begin}
    begin = perf_counter()
    plan.profile(GME_FULL)
    return {"engine.compile_cold_s": rig.phases["plan"],
            "engine.lint_s": rig.phases["lint"],
            "engine.simulate_s": rig.phases["simulate"],
            "engine.profile_s": perf_counter() - begin}


# ---------------------------------------------------------------------------
# offline_paper
# ---------------------------------------------------------------------------

def offline_setup() -> CkksParameters:
    """Parameters → every catalog plan compiled and strictly linted."""
    clear_serve_caches()
    engine.clear_plan_cache()
    params = CkksParameters.paper()
    for name in engine.workload_names():
        engine.compile_workload(name, params, lint="strict")
    return params


def offline_pass(params: CkksParameters, folder: str) -> dict:
    """One walk of compile → lint → simulate x5 → profile → save → load →
    simulate over the catalog, then table8; every public call timed."""
    steps: list[tuple[str, float, float]] = []   # (name, wall s, CPU s)
    mark = (perf_counter(), process_time())

    def lap(name: str) -> None:
        nonlocal mark
        now = (perf_counter(), process_time())
        steps.append((name, now[0] - mark[0], now[1] - mark[1]))
        mark = now

    errors: list[str] = []
    cycles: dict[str, float] = {}
    blocks = size = 0
    for name in engine.workload_names():
        engine.clear_plan_cache()
        mark = (perf_counter(), process_time())
        plan = engine.compile_workload(name, params)
        lap(f"{name}.compile")
        plan.lint().raise_for_errors()
        lap(f"{name}.lint")
        for number, features in enumerate(cumulative_configs()):
            plan.simulate(features)
            lap(f"{name}.simulate.{number}")
        blocks += plan.num_blocks * len(cumulative_configs())
        profile = plan.profile(GME_FULL)
        lap(f"{name}.profile")
        path = os.path.join(folder, f"{name}.rpa")
        plan.save(path)
        lap(f"{name}.save")
        loaded = engine.load_plan(path)
        lap(f"{name}.load")
        size += os.path.getsize(path)
        reloaded = loaded.simulate(GME_FULL).cycles
        lap(f"{name}.resimulate")
        cycles[f"{name}.baseline"] = plan.simulate(BASELINE).cycles
        cycles[f"{name}.gme_full"] = full = plan.simulate(GME_FULL).cycles
        if profile.total_cycles != full:
            errors.append(f"{name}: profile {profile.total_cycles} != "
                          f"simulate {full} cycles")
        if reloaded != full:
            errors.append(f"{name}: loaded plan {reloaded} != compiled "
                          f"plan {full} cycles")
    mark = (perf_counter(), process_time())
    rows = table8.run()
    lap("table8")
    cells = [cell for row in rows.values() for cell in row.values()]
    return {"steps": steps, "blocks": blocks, "bytes": size,
            "cycles": cycles, "errors": errors,
            "sim_error": statistics.fmean(abs(measured - paper) / paper
                                          for measured, paper in cells)}


def quiet_steps(passes: list[dict], clock: int) -> dict[str, float]:
    """Each step's fastest run over the passes (``clock`` 1: wall, 2:
    CPU).  Every pass does the same work, so a step's fastest run is what
    it costs; the others add what the machine was doing meanwhile."""
    return {step[0]: min(p["steps"][i][clock] for p in passes)
            for i, step in enumerate(passes[0]["steps"])}


def run_offline(seed: int, seconds: float, traced: bool) -> dict:
    # The catalog is the input and the seed has nothing to choose.  (It
    # used to pick the visiting order, and a pass that compiles resnet
    # first is a fifth slower than one that compiles it last: the seed
    # must not change the work.)
    ticks_before = machine_ticks()
    calib_before = calibrate()
    setup_seconds, params = time_setups(offline_setup, 2)
    passes = []
    deadline = perf_counter() + seconds
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_",
                                     dir=ROOT) as folder:
        while len(passes) < MIN_PASSES or perf_counter() < deadline:
            passes.append(offline_pass(params, folder))
    calib_after = calibrate()

    errors = [e for p in passes for e in p["errors"]]
    failed = sum(1 for p in passes
                 if p["errors"] or p["cycles"] != passes[0]["cycles"]
                 or p["sim_error"] != passes[0]["sim_error"])
    if failed and not errors:
        errors.append("simulated cycles differ between passes")
    walls = [sum(wall for _, wall, _ in p["steps"]) for p in passes]
    first = passes[0]
    steps = quiet_steps(passes, 1)
    spread = statistics.median(walls) / sum(steps.values())
    if not traced:
        peak = peak_rss_mb()
        setup_seconds += time_setups(offline_setup, 1)[0]
        # A pass at the speed of each step's fastest run: passes last
        # seconds, the sandbox's quiet moments less.
        metrics = {
            "throughput_ops_s": 1.0 / sum(steps.values()),
            "latency_p50_s": sum(steps.values()),
            "cpu_ms_per_op": 1e3 * sum(quiet_steps(passes, 2).values()),
            "failed_share": failed / len(passes),
            "setup_s": min(setup_seconds),
            "peak_rss_mb": peak,
            "sim_error_vs_paper": first["sim_error"],
        }
    else:
        def stage(name: str) -> float:
            return sum(seconds for step, seconds in steps.items()
                       if name in step.split("."))

        metrics = {
            "engine.compile_cold_s": stage("compile"),
            "engine.lint_s": stage("lint"),
            "engine.simulate_s": stage("simulate") + stage("resimulate"),
            "engine.profile_s": stage("profile"),
            "blocksim.blocks_per_s": first["blocks"] / stage("simulate"),
            "gme.speedup_geomean": math.prod(
                first["cycles"][f"{w}.baseline"]
                / first["cycles"][f"{w}.gme_full"]
                for w in CATALOG) ** (1 / len(CATALOG)),
            "artifact.save_s": stage("save"),
            "artifact.load_s": stage("load"),
            "artifact.bytes": first["bytes"],
            "experiments.table8_s": stage("table8"),
            "experiments.sim_error_vs_paper": first["sim_error"],
            "bench.calib_ns_before": calib_before,
            "bench.calib_ns_after": calib_after,
            "bench.segment_spread": spread,
        }
        metrics.update({f"blocksim.cycles.{key}": value
                        for key, value in first["cycles"].items()})
    samples = {"latency": timing_summary(walls), "pass_wall_s": walls,
               "quiet_step_s": steps, "setup_s": setup_seconds}
    return document(OFFLINE_CASE.name, seed, seconds, traced, len(passes),
                    failed, errors, metrics, samples,
                    guards(calib_before, calib_after, spread,
                           ticks_before))


# ---------------------------------------------------------------------------

def document(workload: str, seed: int, seconds: float, traced: bool,
             attempted: int, failed: int, errors: list[str],
             metrics: dict, samples: dict, guard: dict) -> dict:
    """One workload's result: every metric of its mode by name (``None``
    where it does not apply or has too few samples)."""
    names = [m.name for m in (PER_LAYER if traced else REPORTED)]
    unknown = set(metrics) - set(names)
    if unknown:
        raise AssertionError(f"unnamed metrics emitted: {sorted(unknown)}")
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "traced": traced, "correct": failed == 0,
            "attempted": attempted, "failed": failed, "errors": errors,
            "metrics": {name: metrics.get(name) for name in names},
            "samples": samples, "guards": guard}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 spans_path: str | None = None) -> dict:
    case = CASES[name]
    if case is OFFLINE_CASE:
        return run_offline(seed, seconds, traced)
    return run_serving(case, seed, seconds, traced, spans_path)
