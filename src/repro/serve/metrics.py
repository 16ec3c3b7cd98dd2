"""Serving metrics: queue depth, batch occupancy, latency, QPS.

One :class:`ServeMetrics` instance belongs to one
:class:`~repro.serve.server.PlanServer`.  The server mutates it from the
event loop (admission counters) and from worker threads (batch service
accounting, guarded by a lock); :meth:`ServeMetrics.snapshot` renders a
JSON-clean dict that ``python3 -m bench`` reports and the serving tests
(``tests/serve/``, ``benchmarks/test_serve_speedup.py``) assert on.

Two time bases coexist:

* **wall** — real elapsed seconds; meaningful for the real-execution
  lane (``wall_qps``, latency percentiles);
* **service** — seconds the executor says a batch *costs* (for the
  simulated executor, simulated cycles over the GPU clock); meaningful
  at paper parameters where nothing is actually executed
  (``service_qps`` = queries per second of executor busy time, i.e.
  per-worker throughput).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 on empty input."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


#: Latency samples kept for percentile computation (oldest dropped).
LATENCY_RESERVOIR = 8192


@dataclass
class ServeMetrics:
    """Counters and gauges for one server instance.

    Every mutator takes ``self._lock``: admission runs on the event
    loop while batch completion runs on worker coroutines and
    ``snapshot`` may be read from any thread, so unlocked counters
    race (they did, before the resilience PR).
    """

    submitted: int = 0
    served: int = 0
    rejected: int = 0
    batches: int = 0
    #: Queries currently in the system (pending + queued + executing).
    in_flight: int = 0
    #: Terminal batch-execution failures (post retry and bisection).
    failures: int = 0
    #: Queries resolved with an exception (poisoned / exhausted retries).
    failed_queries: int = 0
    #: Queries whose deadline passed before execution (never executed;
    #: counted separately from rejects).
    expired: int = 0
    #: Batch re-executions after a transient executor fault.
    retries: int = 0
    #: Batch splits isolating a poisoned query.
    bisections: int = 0
    #: Reject totals by admission gate (saturated/quota/breaker/shed).
    rejected_by_reason: dict = field(default_factory=dict)
    #: Health state machine, stamped by the server.
    health_state: str = "healthy"
    health_transitions: int = 0
    #: Executor busy time (sum over batches of reported service seconds).
    service_seconds: float = 0.0
    #: Per-batch slot occupancy (used slots / N/2).
    occupancies: list[float] = field(default_factory=list)
    #: Per-batch query counts.
    batch_sizes: list[int] = field(default_factory=list)
    #: Per-query wall latency (submit -> result), seconds.
    latencies: list[float] = field(default_factory=list)
    started_at: float = field(default_factory=time.perf_counter)
    #: Content fingerprint of the served plan (the ``.rpa`` header
    #: value when deployed from an artifact); stamped by the server so
    #: every metrics export names the exact plan build it measured.
    plan_fingerprint: str | None = None

    def __post_init__(self):
        self._lock = threading.Lock()

    # -- admission-side (event loop) ---------------------------------------

    def record_submit(self) -> None:
        with self._lock:
            self.submitted += 1
            self.in_flight += 1

    def record_reject(self, reason: str = "saturated") -> None:
        with self._lock:
            self.submitted += 1
            self.rejected += 1
            self.rejected_by_reason[reason] = \
                self.rejected_by_reason.get(reason, 0) + 1

    def record_expired(self, queries: int = 1, *,
                       admitted: bool = True) -> None:
        """Deadline expiries: admitted queries leave ``in_flight``;
        submit-time expiries only count as submissions."""
        with self._lock:
            self.expired += queries
            if admitted:
                self.in_flight -= queries
            else:
                self.submitted += queries

    def record_shed(self) -> None:
        self.record_reject("shed")

    def set_health(self, state: str, transitions: int) -> None:
        with self._lock:
            self.health_state = state
            self.health_transitions = transitions

    # -- completion-side (worker threads) ----------------------------------

    def record_batch(self, queries: int, occupancy: float,
                     service_seconds: float,
                     latencies: list[float]) -> None:
        with self._lock:
            self.batches += 1
            self.served += queries
            self.in_flight -= queries
            self.service_seconds += service_seconds
            self.occupancies.append(occupancy)
            self.batch_sizes.append(queries)
            self.latencies.extend(latencies)
            if len(self.latencies) > LATENCY_RESERVOIR:
                del self.latencies[:len(self.latencies)
                                   - LATENCY_RESERVOIR]

    def record_failure(self, queries: int) -> None:
        """A terminal batch failure: ``queries`` resolved with errors."""
        with self._lock:
            self.failures += 1
            self.failed_queries += queries
            self.in_flight -= queries

    def record_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def record_bisection(self) -> None:
        with self._lock:
            self.bisections += 1

    # -- derived -----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Backpressure gauge: queries admitted but not yet resolved."""
        return self.in_flight

    @property
    def mean_occupancy(self) -> float:
        if not self.occupancies:
            return 0.0
        return sum(self.occupancies) / len(self.occupancies)

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    def wall_seconds(self) -> float:
        return time.perf_counter() - self.started_at

    def wall_qps(self) -> float:
        elapsed = self.wall_seconds()
        return self.served / elapsed if elapsed > 0 else 0.0

    def service_qps(self) -> float:
        """Queries per second of executor busy time (per worker)."""
        if self.service_seconds <= 0:
            return 0.0
        return self.served / self.service_seconds

    @property
    def goodput(self) -> float:
        """Fraction of admitted queries actually served (0.0–1.0).

        Failed and expired queries count against it: both are
        admitted-side work the server did not turn into a result.
        """
        admitted = self.submitted - self.rejected
        return self.served / admitted if admitted > 0 else 0.0

    def snapshot(self) -> dict:
        """JSON-clean summary (the serve bench's per-lane payload)."""
        with self._lock:
            return {
                "plan_fingerprint": self.plan_fingerprint,
                "submitted": self.submitted,
                "served": self.served,
                "rejected": self.rejected,
                "rejected_by_reason": dict(self.rejected_by_reason),
                "failures": self.failures,
                "failed_queries": self.failed_queries,
                "expired": self.expired,
                "retries": self.retries,
                "bisections": self.bisections,
                "health_state": self.health_state,
                "health_transitions": self.health_transitions,
                "batches": self.batches,
                "queue_depth": self.queue_depth,
                "mean_batch_size": self.mean_batch_size,
                "mean_occupancy": self.mean_occupancy,
                "max_occupancy": max(self.occupancies, default=0.0),
                "goodput": self.goodput,
                "service_seconds": self.service_seconds,
                "service_qps": self.service_qps(),
                "wall_seconds": self.wall_seconds(),
                "wall_qps": self.wall_qps(),
                "latency_p50_s": percentile(self.latencies, 50),
                "latency_p99_s": percentile(self.latencies, 99),
            }
