"""Every metric the benchmark emits: name, unit, direction, bound.

``BENCHMARK.json`` is this file's mirror (``test_harness`` holds them
equal both ways).  Three groups:

* :data:`GATED` — the end-to-end metrics ``BENCHMARK.json`` bounds; every
  workload emits every one and none is ever 0.
* :data:`REPORTED` — :data:`GATED` plus the two end-to-end figures that
  *are* 0 or absent on a healthy run (``failed_share`` is 0 everywhere,
  ``sim_error_vs_paper`` exists on ``offline_paper`` only); the full
  report and ``--compare`` carry them, held to equality.
* :data:`PER_LAYER` — the traced breakdown; no bounds.  A figure that
  does not apply to a workload (``exec.*`` where nothing executes) or
  has too few samples is ``None`` in the report and 0 on the one-line
  result.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Backend kernels that get a span (``backend.<k>.calls`` / ``.self_ms``).
BACKEND_KERNELS = ("ntt_forward", "ntt_inverse", "mod_up", "mod_down",
                   "digit_decompose", "mont_mul", "mul", "add",
                   "automorphism", "rescale_last", "to_mont")

#: Evaluator methods that get a span (``evaluator.<m>.calls`` / ``.ms``).
EVALUATOR_METHODS = ("poly_mult", "poly_add", "he_add", "he_mult",
                     "he_square", "he_rotate", "rescale")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                 # "lower" | "higher"
    #: Relative worsening that counts as a regression (end to end only).
    bound: float | None = None
    #: Repeats exactly between runs of the same code: compared by
    #: equality, never by tolerance.
    exact: bool = False


# Bounds are set against what ten runs on ten seeds show in a shared
# two-core sandbox (README.md, "Steadiness"): its speed wanders by a
# tenth or more for seconds to minutes at a time, and where tenants' keys
# come and go peak memory follows the garbage collector's timing, so
# every metric gets the widest bound there is.
GATED = (
    Metric("throughput_ops_s", "ops/s", "higher", 0.25),
    Metric("latency_p50_s", "s", "lower", 0.25),
    Metric("cpu_ms_per_op", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
)

REPORTED = GATED + (
    Metric("failed_share", "ratio", "lower", 0.0, exact=True),
    Metric("sim_error_vs_paper", "ratio", "lower", 0.0, exact=True),
)

#: Workloads the three catalog programs are simulated as.
CATALOG = ("boot", "helr", "resnet")

#: Workloads that execute real crypto.  The whole-set mode refuses a
#: ``--scale`` that leaves one of them fewer than MIN_REAL_QUERIES served
#: queries: its medians would rest on a dozen batches.
REAL_LANES = ("score_toy_1t", "score_pw54_4t", "affine_toy_1t",
              "score_toy_churn")
MIN_REAL_QUERIES = 200


def _per_layer() -> tuple[Metric, ...]:
    lower, higher = "lower", "higher"
    out = [
        # -- serve: admission, batching, queueing, key residency ----------
        Metric("serve.batches", "count", higher),
        Metric("serve.mean_batch_size", "count", higher),
        Metric("serve.mean_occupancy", "ratio", higher),
        Metric("serve.queue_wait_p50_s", "s", lower),
        Metric("serve.run_p50_s", "s", lower),
        Metric("serve.self_ms_per_op", "ms", lower),
        Metric("serve.run_concurrency_mean", "ratio", higher),
        Metric("serve.latency_p95_s", "s", lower),
        Metric("serve.latency_p99_s", "s", lower),
        Metric("serve.retries", "count", lower),
        Metric("serve.rejects", "count", lower),
        Metric("serve.keycache_hits", "count", higher),
        Metric("serve.keycache_misses", "count", lower),
        Metric("serve.keycache_evictions", "count", lower),
        # -- serve executor stages, ms per batch --------------------------
        Metric("exec.keys_get_ms", "ms", lower),
        Metric("exec.pack_ms", "ms", lower),
        Metric("exec.encrypt_ms", "ms", lower),
        Metric("exec.plan_execute_ms", "ms", lower),
        Metric("exec.decrypt_ms", "ms", lower),
        Metric("exec.unpack_ms", "ms", lower),
        Metric("exec.unattributed_ms", "ms", lower),
        # -- fhe.keys ------------------------------------------------------
        Metric("keys.miss_ms", "ms", lower),
        # -- engine --------------------------------------------------------
        Metric("engine.replay_self_ms", "ms", lower),
        Metric("engine.trace_ops", "count", lower, exact=True),
        Metric("engine.compile_cold_s", "s", lower),
        Metric("engine.lint_s", "s", lower),
        Metric("engine.simulate_s", "s", lower),
        Metric("engine.profile_s", "s", lower),
    ]
    for method in EVALUATOR_METHODS:
        out.append(Metric(f"evaluator.{method}.calls", "count", lower,
                          exact=True))
        out.append(Metric(f"evaluator.{method}.ms", "ms", lower))
    for kernel in BACKEND_KERNELS:
        out.append(Metric(f"backend.{kernel}.calls", "count", lower,
                          exact=True))
        out.append(Metric(f"backend.{kernel}.self_ms", "ms", lower))
    out.append(Metric("backend.ntt_limb_rows", "count", lower, exact=True))
    # -- blocksim / gme / artifact / experiments (offline_paper) ----------
    out.append(Metric("blocksim.blocks_per_s", "1/s", higher))
    for workload in CATALOG:
        for config in ("baseline", "gme_full"):
            out.append(Metric(f"blocksim.cycles.{workload}.{config}",
                              "cycles", lower, exact=True))
    out += [
        Metric("gme.speedup_geomean", "x", higher, exact=True),
        Metric("artifact.save_s", "s", lower),
        Metric("artifact.load_s", "s", lower),
        Metric("artifact.bytes", "B", lower, exact=True),
        Metric("experiments.table8_s", "s", lower),
        Metric("experiments.sim_error_vs_paper", "ratio", lower,
               exact=True),
        # -- the harness itself: can this run be trusted? -----------------
        Metric("bench.tracing_overhead", "ratio", lower),
        Metric("bench.calib_ns_before", "ns", lower),
        Metric("bench.calib_ns_after", "ns", lower),
        Metric("bench.segment_spread", "ratio", lower),
    ]
    return tuple(out)


PER_LAYER = _per_layer()
