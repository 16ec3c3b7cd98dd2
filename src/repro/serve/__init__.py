"""repro.serve: batched multi-tenant serving on top of ExecutablePlan.

The serving layer treats a compiled :class:`~repro.engine.ExecutablePlan`
as a shared immutable artifact and packs independent queries into the
unused CKKS slots of one ciphertext (N/2 slots per ciphertext; most
queries need a small window).  See README.md in this directory for the
request -> batch -> plan -> unpack walkthrough, and ROADMAP.md item 1
for why serving-shaped throughput is the point of the GME design.

Public surface:

* :class:`PlanServer` / :class:`ServeConfig` / :func:`serve` — the
  async server, its admission knobs, and a one-shot sync wrapper;
* :class:`ServedWorkload` / :func:`scoring_workload` — deployable
  window-local programs;
* :class:`SlotBatcher` / :class:`Query` / :class:`Batch` — slot-level
  batching state;
* :class:`TenantKeyCache` / :func:`shared_plan` — process-wide caches
  (service-level key residency, shared compiled plans);
* :class:`ServeMetrics` — queue depth, occupancy, latency, QPS,
  failure/retry/bisection accounting;
* the resilience layer (:mod:`repro.serve.resilience`) — the typed
  exception ladder rooted at :class:`ServeError`, per-tenant
  :class:`TokenBucket` quotas and :class:`CircuitBreaker`\\ s,
  :class:`RetryPolicy`, and the :class:`HealthMonitor` degradation
  state machine, configured via :class:`ResilienceConfig`;
* :class:`FaultInjectingExecutor` / :class:`FaultPlan`
  (:mod:`repro.serve.faults`) — deterministic seeded fault injection
  wrapping any executor, for the chaos tests (``tests/serve/test_faults.py``).

Also reachable as ``repro.engine.serve`` (the engine front door
re-exports this module lazily).
"""

from .batcher import Batch, Query, SlotBatcher
from .cache import (TenantKeyCache, clear_serve_caches, shared_plan,
                    tenant_seed)
from .faults import FaultInjectingExecutor, FaultPlan, window_checksum
from .metrics import LATENCY_RESERVOIR, ServeMetrics, percentile
from .resilience import (BreakerState, CircuitBreaker, CircuitOpen,
                         CorruptedResult, DeadlineExceeded,
                         HealthMonitor, HealthState, InputOutOfDomain,
                         LoadShed, PoisonedQueryError, QuotaExceeded,
                         ResilienceConfig, RetryPolicy, ServeError,
                         ServerSaturated, TokenBucket, TransientFault)
from .server import (PlanServer, RealExecutor, ServeConfig,
                     SimulatedExecutor, serve)
from .workloads import ServedProgram, ServedWorkload, scoring_workload

__all__ = [
    "Batch",
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpen",
    "CorruptedResult",
    "DeadlineExceeded",
    "FaultInjectingExecutor",
    "FaultPlan",
    "HealthMonitor",
    "HealthState",
    "InputOutOfDomain",
    "LATENCY_RESERVOIR",
    "LoadShed",
    "PlanServer",
    "PoisonedQueryError",
    "Query",
    "QuotaExceeded",
    "RealExecutor",
    "ResilienceConfig",
    "RetryPolicy",
    "ServeConfig",
    "ServeError",
    "ServeMetrics",
    "ServedProgram",
    "ServedWorkload",
    "ServerSaturated",
    "SimulatedExecutor",
    "SlotBatcher",
    "TenantKeyCache",
    "TokenBucket",
    "TransientFault",
    "clear_serve_caches",
    "percentile",
    "scoring_workload",
    "serve",
    "shared_plan",
    "tenant_seed",
    "window_checksum",
]
