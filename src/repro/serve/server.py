"""PlanServer: async batched serving of compiled plans.

Request flow (see README.md for the full diagram)::

    submit(values, tenant,            ──► SlotBatcher ──► Batch ──► priority
           priority, deadline_s)           │ (admission:             queue
      │ admission gates:                   │  max_batch / max_wait)    │
      │  shed → quota → depth →            ▼                           ▼
      │  deadline → breaker          backpressure                  worker pool
      ▼                              (ServerSaturated)            retry w/
    typed rejects                                                 backoff, then
    (CircuitOpen, LoadShed,                                       bisection on
     QuotaExceeded, DeadlineExceeded)                             persistent
                                                                  faults

Two executors implement the batch-execution seam:

* :class:`RealExecutor` — functional serving at small parameters:
  per-tenant contexts from the shared :class:`TenantKeyCache`, one
  shared :class:`~repro.engine.ExecutablePlan` carrying plaintext
  payloads (:func:`~repro.serve.cache.shared_plan`), real encrypt / replay /
  decrypt per batch;
* :class:`SimulatedExecutor` — throughput modeling at paper parameters:
  the batch "costs" the plan's simulated cycles under a GME feature set
  over the MI100 clock, so queries-per-second at paper scale is a
  measured number without executing N=2^16 crypto.

Any executor can be wrapped by
:class:`~repro.serve.faults.FaultInjectingExecutor` to exercise the
failure paths deterministically.

**Failure semantics** (the full story is in README.md): a transient
executor fault (:class:`~repro.serve.resilience.TransientFault`) retries
the batch with jittered exponential backoff; a persistent fault bisects
the batch to isolate the poisoned query, which alone fails with
:class:`~repro.serve.resilience.PoisonedQueryError` while its co-riders
are served.  Per-tenant circuit breakers fail a misbehaving tenant's
submissions fast, and a health state machine driven by measured queue
load shrinks the admission window and sheds low-priority work first.

**Result precision contract.** CKKS is approximate: the same query
packed next to different neighbors decodes with different low-order
noise bits.  With ``round_decimals`` set, served results are quantized
to the declared precision, making responses *bit-identical* regardless
of how queries were batched — including after a retry or bisection
repacks them (as long as the quantization step stays well above the
noise floor — the tests assert the margin); with ``round_decimals=None``
raw decoded values are returned.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.fhe.packing import SlotLayout
from repro.fhe.params import CkksParameters
from repro.gme.features import GME_FULL, FeatureSet

from .batcher import Batch, Query, SlotBatcher
from .cache import TenantKeyCache, shared_plan
from .metrics import ServeMetrics
from .resilience import (CircuitBreaker, CircuitOpen, DeadlineExceeded,
                         HealthMonitor, InputOutOfDomain, LoadShed,
                         PoisonedQueryError, QuotaExceeded,
                         ResilienceConfig, ServeError, ServerSaturated,
                         TokenBucket, TransientFault)
from .workloads import ServedWorkload

__all__ = [
    "PlanServer", "RealExecutor", "ServeConfig", "ServerSaturated",
    "SimulatedExecutor", "serve",
]

#: Priority-queue key that sorts shutdown sentinels after all batches.
_SENTINEL_KEY = float("inf")


def _plan_fingerprint(plan) -> str | None:
    """The served plan's content fingerprint, for metrics exports.

    Plans loaded from an ``.rpa`` artifact carry the header fingerprint
    in their provenance; freshly compiled plans compute the identical
    value.  Only a server without a plan has none.
    """
    if plan is None:
        return None
    provenance = getattr(plan, "provenance", None)
    if provenance and provenance.get("fingerprint"):
        return str(provenance["fingerprint"])
    return str(plan.fingerprint)


@dataclass(frozen=True)
class ServeConfig:
    """Admission, pooling, precision, and resilience knobs."""

    #: Queries per batch before it closes (default: layout capacity).
    max_batch_queries: int | None = None
    #: Longest a partial batch waits for co-riders before closing.
    max_wait_s: float = 0.002
    #: Concurrent batch executors.
    workers: int = 2
    #: Backpressure bound on queries in the system (pending + running).
    max_queue_depth: int = 4096
    #: Served-result quantization (decimal places); None returns raw
    #: decoded values.  See the precision contract in the module doc.
    round_decimals: int | None = None
    #: Retry / quota / breaker / degradation knobs (resilience.py).
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)


class RealExecutor:
    """Execute batches functionally on per-tenant CKKS contexts."""

    def __init__(self, workload: ServedWorkload, params: CkksParameters,
                 key_cache: TenantKeyCache | None = None,
                 round_decimals: int | None = None,
                 artifact: str | None = None):
        self.workload = workload
        self.params = params
        self.layout = workload.layout(params)
        self.keys = key_cache or TenantKeyCache()
        self.round_decimals = round_decimals
        self.plan = shared_plan(workload, params, artifact=artifact)
        #: The query domain admission checks (``PlanServer.submit``).
        self.input_bound = workload.input_bound
        #: Same-tenant batches serialize (they share evaluator caches);
        #: different tenants execute in parallel across workers.
        self._tenant_locks: dict[str, threading.Lock] = {}
        self._locks_lock = threading.Lock()

    def _tenant_lock(self, tenant: str) -> threading.Lock:
        with self._locks_lock:
            return self._tenant_locks.setdefault(tenant,
                                                 threading.Lock())

    def run(self, batch: Batch) -> tuple[list[np.ndarray], float]:
        start = time.perf_counter()
        with self._tenant_lock(batch.tenant):
            ctx = self.keys.get(batch.tenant, self.params)
            ct = ctx.encrypt(batch.packed_values(),
                             level=self.plan.entry_level)
            out = self.plan.execute(ctx, sources=[ct]).output
            decoded = ctx.decrypt(out).real
        results = self.layout.unpack_many(
            decoded, len(batch), take=self.workload.result_slots)
        if self.round_decimals is not None:
            results = [np.round(r, self.round_decimals) for r in results]
        else:
            results = [r.copy() for r in results]
        return results, time.perf_counter() - start


class SimulatedExecutor:
    """Cost batches with BlockSim cycles instead of executing them.

    Service time per batch = the plan's simulated cycles under
    ``features`` over the simulator's GPU clock — one plan execution
    serves the whole batch, which is exactly the amortization the
    batcher exists to exploit.  Results are zero vectors (shape only).
    """

    def __init__(self, plan, layout: SlotLayout,
                 features: FeatureSet = GME_FULL,
                 result_slots: int = 1):
        self.plan = plan
        self.params = plan.params
        self.layout = layout
        self.features = features
        self.result_slots = result_slots
        metrics = plan.simulate(features)   # cached per feature set
        self.seconds_per_execution = metrics.time_ms() / 1e3

    def run(self, batch: Batch) -> tuple[list[np.ndarray], float]:
        results = [np.zeros(self.result_slots)
                   for _ in range(len(batch))]
        return results, self.seconds_per_execution


class PlanServer:
    """Async serving front door over one executor.

    Use as an async context manager; :meth:`submit` from any number of
    concurrent tasks.  The synchronous one-shot wrapper is
    :func:`repro.serve.serve`.
    """

    def __init__(self, executor, config: ServeConfig | None = None):
        self.executor = executor
        self.config = config or ServeConfig()
        self.layout: SlotLayout = executor.layout
        self.batcher = SlotBatcher(self.layout,
                                   self.config.max_batch_queries)
        #: Fingerprint of the deployed plan, stamped into every metrics
        #: snapshot (survives the metrics reset in :meth:`start`).
        self.plan_fingerprint = _plan_fingerprint(
            getattr(executor, "plan", None))
        #: Largest |x| a query slot may carry; ``None`` admits anything.
        self.input_bound: float | None = getattr(executor, "input_bound",
                                                 None)
        self.metrics = ServeMetrics(
            plan_fingerprint=self.plan_fingerprint)
        resilience = self.config.resilience
        self.health = HealthMonitor(resilience)
        #: Per-tenant breakers/quotas persist across start/stop cycles:
        #: a tenant's reputation outlives one serving session.
        self._breakers: dict[str, CircuitBreaker] = {}
        self._quotas: dict[str, TokenBucket] = {}
        self._rng = random.Random(resilience.seed)
        self._queue: asyncio.PriorityQueue | None = None
        self._workers: list[asyncio.Task] = []
        self._timers: dict[str, asyncio.TimerHandle] = {}
        self._seq = 0
        self._stopping = False

    # -- construction helpers ----------------------------------------------

    @classmethod
    def real(cls, workload: ServedWorkload,
             params: CkksParameters | None = None,
             config: ServeConfig | None = None,
             key_cache: TenantKeyCache | None = None,
             artifact: str | None = None) -> "PlanServer":
        """Functional serving of ``workload`` at (small) ``params``.

        Pass ``artifact`` (an ``.rpa`` path) to deploy a previously
        saved plan instead of compiling one — see
        :func:`~repro.serve.cache.shared_plan`.
        """
        params = params or CkksParameters.toy()
        config = config or ServeConfig()
        executor = RealExecutor(workload, params, key_cache=key_cache,
                                round_decimals=config.round_decimals,
                                artifact=artifact)
        return cls(executor, config)

    @classmethod
    def simulated(cls, plan_or_name, width: int,
                  params: CkksParameters | None = None,
                  features: FeatureSet = GME_FULL,
                  config: ServeConfig | None = None) -> "PlanServer":
        """Throughput-model serving of a compiled plan (paper params).

        ``plan_or_name`` is an :class:`~repro.engine.ExecutablePlan`, a
        workload-registry name (compiled via ``engine.compile``), or a
        path to a saved ``.rpa`` plan artifact (loaded via
        :func:`repro.engine.load_plan`).
        """
        from repro import engine
        plan, source = plan_or_name, plan_or_name
        if isinstance(plan_or_name, str):
            plan = (engine.load_plan(plan_or_name)
                    if plan_or_name.endswith(".rpa")
                    else engine.compile(plan_or_name, params))
        else:
            source = f"plan {plan.name!r}"
        if params is not None and plan.params != params:
            raise ValueError(f"{source}: plan parameters do not match the "
                             "requested serving parameters")
        layout = SlotLayout.for_params(plan.params, width)
        executor = SimulatedExecutor(plan, layout, features=features)
        return cls(executor, config)

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._queue is not None and not self._stopping

    async def start(self) -> None:
        if self._queue is not None:
            raise RuntimeError("server already started")
        self._queue = asyncio.PriorityQueue()
        self._stopping = False
        self.metrics = ServeMetrics(
            plan_fingerprint=self.plan_fingerprint)
        self.health = HealthMonitor(self.config.resilience)
        self._workers = [asyncio.create_task(self._worker())
                         for _ in range(self.config.workers)]

    async def stop(self) -> None:
        """Drain open batches, wait for workers, shut down.

        Order matters: admissions are refused and max-wait timers are
        cancelled *before* the drain.  A timer left alive here could
        fire after the workers exited (its batch's futures would hang
        forever) or after ``self._queue`` is torn down (crashing on a
        ``put_nowait`` against ``None``) — the stop-timer race.
        """
        if self._queue is None or self._stopping:
            return
        self._stopping = True
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for batch in self.batcher.flush_all():
            self._dispatch(batch)
        await self._queue.join()
        for _ in self._workers:
            self._seq += 1
            self._queue.put_nowait((_SENTINEL_KEY, self._seq, None))
        await asyncio.gather(*self._workers)
        self._workers = []
        self._queue = None
        self._stopping = False

    async def __aenter__(self) -> "PlanServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- resilience state --------------------------------------------------

    def breaker(self, tenant: str) -> CircuitBreaker:
        """The tenant's circuit breaker (created on first use)."""
        breaker = self._breakers.get(tenant)
        if breaker is None:
            resilience = self.config.resilience
            breaker = CircuitBreaker(resilience.breaker_failures,
                                     resilience.breaker_reset_s)
            self._breakers[tenant] = breaker
        return breaker

    def _quota(self, tenant: str) -> TokenBucket | None:
        resilience = self.config.resilience
        if resilience.tenant_qps is None:
            return None
        bucket = self._quotas.get(tenant)
        if bucket is None:
            bucket = TokenBucket(resilience.tenant_qps,
                                 resilience.tenant_burst)
            self._quotas[tenant] = bucket
        return bucket

    def _observe_load(self) -> None:
        load = self.metrics.queue_depth / max(1,
                                              self.config.max_queue_depth)
        self.health.observe(load)
        self.metrics.set_health(self.health.state.value,
                                self.health.transitions)

    def resilience_snapshot(self) -> dict:
        """JSON-clean resilience state (health, breakers, quotas)."""
        return {
            "health": self.health.snapshot(),
            "breakers": {tenant: breaker.snapshot()
                         for tenant, breaker in self._breakers.items()},
            "quotas": {tenant: bucket.snapshot()
                       for tenant, bucket in self._quotas.items()},
        }

    # -- request path ------------------------------------------------------

    async def submit(self, values, tenant: str = "default", *,
                     priority: int = 0,
                     deadline_s: float | None = None) -> np.ndarray:
        """Serve one query; resolves when its batch has executed.

        ``priority`` orders batches in the worker queue (higher runs
        sooner) and decides who is shed first under degradation;
        ``deadline_s`` is a relative deadline — a query whose deadline
        passes before execution fails fast with
        :class:`DeadlineExceeded` and is never executed.

        Typed admission failures, tried in order:
        :class:`InputOutOfDomain` (a slot past the workload's
        ``input_bound``, before the query can join a batch),
        :class:`LoadShed` (degraded server, priority below the floor),
        :class:`QuotaExceeded` (tenant token bucket empty),
        :class:`ServerSaturated` (``max_queue_depth`` reached),
        :class:`DeadlineExceeded` (already-expired deadline), and
        :class:`CircuitOpen` (tenant breaker open).
        """
        if not self.running:
            raise RuntimeError("server is stopping" if self._stopping
                               else "server is not started")
        values = np.asarray(values)
        if len(values) > self.layout.width:
            raise ValueError(
                f"query payload has {len(values)} entries, the layout "
                f"window is {self.layout.width} slots")
        if self.input_bound is not None and not np.all(
                np.abs(values) <= self.input_bound):
            self.metrics.record_reject("domain")
            raise InputOutOfDomain(
                f"tenant {tenant!r}: a query slot exceeds the workload's "
                f"input bound |x| <= {self.input_bound:g}")
        self._observe_load()
        floor = self.health.min_priority
        if floor is not None and priority < floor:
            self.metrics.record_shed()
            raise LoadShed(
                f"{self.health.state.value} server shed priority "
                f"{priority} work (admission floor {floor})")
        quota = self._quota(tenant)
        if quota is not None and not quota.try_acquire():
            self.metrics.record_reject("quota")
            raise QuotaExceeded(
                f"tenant {tenant!r} exceeded its "
                f"{self.config.resilience.tenant_qps:g} qps quota")
        if self.metrics.queue_depth >= self.config.max_queue_depth:
            self.metrics.record_reject("saturated")
            raise ServerSaturated(
                f"{self.metrics.queue_depth} queries in flight "
                f"(limit {self.config.max_queue_depth})")
        if deadline_s is not None and deadline_s <= 0:
            self.metrics.record_expired(admitted=False)
            raise DeadlineExceeded(
                f"tenant {tenant!r}: deadline {deadline_s:g}s already "
                "expired at submission")
        breaker = self.breaker(tenant)
        if not breaker.allow():
            self.metrics.record_reject("breaker")
            raise CircuitOpen(
                f"tenant {tenant!r}: circuit open after "
                f"{breaker.failure_threshold} consecutive batch "
                "failures")
        self.metrics.record_submit()
        now = time.perf_counter()
        future = asyncio.get_running_loop().create_future()
        query = Query(tenant=tenant, values=values, future=future,
                      priority=priority,
                      deadline_at=(None if deadline_s is None
                                   else now + deadline_s))
        batch = self.batcher.add(query,
                                 close_at=self._effective_max_batch())
        if batch is not None:
            self._dispatch(batch)
        else:
            wait_s = self.config.max_wait_s * self.health.wait_scale
            if deadline_s is not None:
                # Flush at half the remaining deadline: waiting the full
                # deadline for co-riders would expire the query exactly
                # when its batch closes.
                wait_s = min(wait_s, deadline_s / 2)
            self._arm_timer(tenant, wait_s)
        return await future

    def _effective_max_batch(self) -> int:
        return max(1, int(self.batcher.max_batch_queries
                          * self.health.batch_scale))

    def _arm_timer(self, tenant: str, wait_s: float) -> None:
        """Arm (or tighten) the tenant's max-wait flush timer."""
        loop = asyncio.get_running_loop()
        timer = self._timers.get(tenant)
        if timer is not None:
            if timer.when() <= loop.time() + wait_s:
                return                      # existing timer is sooner
            timer.cancel()
        self._timers[tenant] = loop.call_later(wait_s, self._expire,
                                               tenant)

    def _expire(self, tenant: str) -> None:
        """max-wait admission timer: close the tenant's partial batch."""
        self._timers.pop(tenant, None)
        if self._queue is None:
            return                          # stop() already tore down
        batch = self.batcher.flush(tenant)
        if batch is not None:
            self._dispatch(batch)

    def _dispatch(self, batch: Batch) -> None:
        timer = self._timers.pop(batch.tenant, None)
        if timer is not None:
            timer.cancel()
        if self._queue is None:
            # Defensive: never strand futures on a torn-down server.
            error = ServeError("server stopped before dispatch")
            for query in batch.queries:
                if not query.future.done():
                    query.future.set_exception(error)
            self.metrics.record_failure(len(batch))
            return
        self._seq += 1
        self._queue.put_nowait((-batch.priority, self._seq, batch))

    # -- execution path (workers) ------------------------------------------

    async def _worker(self) -> None:
        while True:
            _, _, batch = await self._queue.get()
            try:
                if batch is None:
                    return
                await self._process(batch)
            finally:
                self._queue.task_done()

    async def _process(self, batch: Batch,
                       recovering: bool = False) -> bool:
        """Execute one (sub-)batch end to end; resolve its futures.

        Returns True when every query in the batch was served.  The
        breaker only hears *terminal* per-batch outcomes: a clean
        success here, or the isolated-singleton failure in
        :meth:`_recover`.  Co-rider sub-batches salvaged during
        recovery (``recovering=True``) do not record a success — a
        batch that needed bisection is not a win for its tenant's
        failure streak.
        """
        batch = self._fail_expired(batch)
        if batch is None:
            return True
        try:
            results, service_s = await self._attempt(batch)
        except Exception as exc:            # persistent / retries spent
            return await self._recover(batch, exc)
        done = time.perf_counter()
        latencies = [done - q.submitted_at for q in batch.queries]
        for query, result in zip(batch.queries, results):
            if not query.future.done():
                query.future.set_result(result)
        self.metrics.record_batch(len(batch), batch.occupancy,
                                  service_s, latencies)
        if not recovering:
            self.breaker(batch.tenant).record_success()
        self._observe_load()
        return True

    def _fail_expired(self, batch: Batch) -> Batch | None:
        """Fail past-deadline queries fast; return the live remainder.

        Expired queries are *never executed* and counted separately
        from rejects (``metrics.expired``).
        """
        now = time.perf_counter()
        expired = [q for q in batch.queries if q.expired(now)]
        if not expired:
            return batch
        for query in expired:
            if not query.future.done():
                query.future.set_exception(DeadlineExceeded(
                    f"tenant {query.tenant!r}: deadline missed by "
                    f"{now - query.deadline_at:.4f}s before execution"))
        self.metrics.record_expired(len(expired))
        live = [q for q in batch.queries if not q.expired(now)]
        if not live:
            return None
        return Batch(tenant=batch.tenant, layout=batch.layout,
                     queries=live, created_at=batch.created_at)

    async def _attempt(self, batch: Batch):
        """Run the executor, retrying transient faults with backoff."""
        policy = self.config.resilience.retry
        attempt = 0
        while True:
            try:
                return await asyncio.to_thread(self.executor.run, batch)
            except TransientFault:
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise
                self.metrics.record_retry()
                await asyncio.sleep(
                    policy.backoff_s(attempt - 1, self._rng))

    async def _recover(self, batch: Batch, exc: Exception) -> bool:
        """Bisect a persistently failing batch; isolate the poison.

        Slot batching amortizes one plan execution over many queries;
        this is its robustness dual — the amortization must not widen
        the blast radius.  A singleton that still fails is the poisoned
        query: it alone fails (typed, cause chained), co-riders are
        re-executed in their own sub-batches and served normally.
        """
        if len(batch) == 1:
            query = batch.queries[0]
            poisoned = PoisonedQueryError(
                f"tenant {batch.tenant!r}: query isolated by bisection "
                f"still fails: {exc}")
            poisoned.__cause__ = exc
            if not query.future.done():
                query.future.set_exception(poisoned)
            self.metrics.record_failure(1)
            self.breaker(batch.tenant).record_failure()
            self._observe_load()
            return False
        self.metrics.record_bisection()
        mid = len(batch) // 2
        ok_left = await self._process(batch.subset(0, mid),
                                      recovering=True)
        ok_right = await self._process(batch.subset(mid, len(batch)),
                                       recovering=True)
        return ok_left and ok_right


def serve(workload: ServedWorkload, queries,
          params: CkksParameters | None = None, *,
          tenants=None, config: ServeConfig | None = None,
          key_cache: TenantKeyCache | None = None,
          server: PlanServer | None = None,
          return_exceptions: bool = False) -> tuple[list, dict]:
    """One-shot synchronous serving: run ``queries`` through a server.

    ``queries`` is a sequence of payload vectors; ``tenants`` is a
    parallel sequence of tenant ids (default: all ``"default"``).
    Returns ``(results, metrics_snapshot)`` with results in query
    order.  Pass ``server`` to reuse a pre-built :class:`PlanServer`
    (e.g. a simulated or fault-injecting one); otherwise a real server
    is built for ``workload`` at ``params``.  With
    ``return_exceptions=True``, per-query failures (the typed ladder in
    README.md) are returned in place of results instead of raising —
    the ergonomic mode for chaos runs where some queries are expected
    to fail.
    """
    queries = list(queries)
    if tenants is None:
        tenants = ["default"] * len(queries)
    tenants = list(tenants)
    if len(tenants) != len(queries):
        raise ValueError("tenants and queries must align")
    if server is None:
        server = PlanServer.real(workload, params, config=config,
                                 key_cache=key_cache)

    async def _run():
        async with server:
            return await asyncio.gather(
                *(server.submit(v, tenant=t)
                  for v, t in zip(queries, tenants)),
                return_exceptions=return_exceptions)

    results = asyncio.run(_run())
    return results, server.metrics.snapshot()
