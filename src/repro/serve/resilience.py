"""Resilience primitives for the serving layer.

`repro.serve` started with exactly one failure behavior: an executor
exception failed every query in its batch, and nothing retried, timed
out, or degraded.  This module holds the mechanisms that turn the
server into something that can hold traffic while parts of it misbehave
(ROADMAP item 1(b)/(d)):

* the **typed exception ladder** (:class:`ServeError` and subclasses) —
  every way a query can fail to be served has its own type, so callers
  and tests distinguish "shed this" from "this query is poisoned";
* :class:`TokenBucket` — per-tenant QPS quotas (one misbehaving tenant
  cannot consume the whole admission budget);
* :class:`CircuitBreaker` — per-tenant closed → open → half-open
  breaker over consecutive batch failures, so a tenant whose queries
  keep poisoning batches stops reaching the worker pool at all;
* :class:`RetryPolicy` — exponential backoff with deterministic seeded
  jitter for transient executor faults (HEAAN-profiling's lesson from
  PAPERS.md: key material and plan setup dominate amortized cost, so
  retrying a batch is far cheaper than failing and re-keying);
* :class:`HealthMonitor` — a healthy / degraded / draining state
  machine driven by measured queue load that shrinks the admission
  window (``max_wait_s`` / ``max_batch_queries``) under pressure and
  sheds the lowest-priority work first;
* :class:`ResilienceConfig` — the knobs, carried on
  :class:`~repro.serve.server.ServeConfig`.

Everything here is synchronous, deterministic state with injectable
clocks; all asynchrony (backoff sleeps, bisection recursion) lives in
the server, and every behavior is exercised reproducibly through
:mod:`repro.serve.faults`.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass


# -- typed exception ladder ------------------------------------------------

class ServeError(RuntimeError):
    """Base of every serving-layer failure (see the ladder in README)."""


class ServerSaturated(ServeError):
    """Graceful rejection: the server is at its queue-depth limit."""


class LoadShed(ServerSaturated):
    """Degraded/draining server shed this low-priority submission."""


class InputOutOfDomain(ServeError):
    """A query slot lies outside the workload's declared input domain;
    its result could wrap the plan's output modulus."""


class QuotaExceeded(ServeError):
    """The tenant's token-bucket QPS quota is exhausted."""


class CircuitOpen(ServeError):
    """The tenant's circuit breaker is open: submissions fail fast."""


class DeadlineExceeded(ServeError):
    """The query's deadline passed before execution (never executed)."""


class PoisonedQueryError(ServeError):
    """Bisection isolated this query as the cause of batch failures.

    The underlying executor fault is chained as ``__cause__``; the
    query's co-riders were served normally.
    """


class TransientFault(ServeError):
    """A retryable executor fault (the retry policy's trigger type).

    Executors raise this (or a subclass) for faults that a retry can
    plausibly clear; any other exception is treated as persistent and
    goes straight to batch bisection.
    """


class CorruptedResult(TransientFault):
    """A window checksum mismatch: the batch's results are untrusted.

    Retryable — re-executing the batch recomputes clean results.
    """


# -- per-tenant quota ------------------------------------------------------

class TokenBucket:
    """Token-bucket rate limiter: ``rate`` tokens/s, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float,
                 clock=time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst, self._tokens +
                           (now - self._refilled_at) * self.rate)
        self._refilled_at = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_acquire(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        self._refill()
        if self._tokens < n:
            return False
        self._tokens -= n
        return True

    def snapshot(self) -> dict:
        return {"rate": self.rate, "burst": self.burst,
                "tokens": round(self.tokens, 3)}


# -- per-tenant circuit breaker --------------------------------------------

class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open probe.

    ``record_failure``/``record_success`` are fed terminal *batch*
    outcomes by the server.  While open, :meth:`allow` fails fast; after
    ``reset_after_s`` the breaker half-opens and admits exactly one
    probe submission — its outcome closes or re-opens the breaker.
    """

    def __init__(self, failure_threshold: int = 3,
                 reset_after_s: float = 1.0, clock=time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> BreakerState:
        if (self._state is BreakerState.OPEN
                and self._clock() - self._opened_at >= self.reset_after_s):
            self._state = BreakerState.HALF_OPEN
            self._probing = False
        return self._state

    def allow(self) -> bool:
        """May this tenant submit right now?"""
        state = self.state
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.HALF_OPEN and not self._probing:
            self._probing = True          # exactly one probe in flight
            return True
        return False

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._state = BreakerState.CLOSED
        self._probing = False

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if (self._state is BreakerState.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold):
            self._state = BreakerState.OPEN
            self._opened_at = self._clock()
            self._probing = False

    def snapshot(self) -> dict:
        return {"state": self.state.value,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold}


# -- retry policy ----------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic (seeded-rng) jitter."""

    #: Total executor attempts per (sub-)batch, including the first.
    max_attempts: int = 3
    backoff_base_s: float = 0.005
    backoff_multiplier: float = 2.0
    #: Jitter fraction: the sleep is scaled by [1, 1 + jitter).
    jitter: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry ``attempt`` (0-based); jitter from ``rng``."""
        base = self.backoff_base_s * self.backoff_multiplier ** attempt
        return base * (1.0 + self.jitter * rng.random())


# -- health state machine --------------------------------------------------

class HealthState(enum.Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DRAINING = "draining"


@dataclass(frozen=True)
class ResilienceConfig:
    """Resilience knobs, carried on ``ServeConfig.resilience``."""

    retry: RetryPolicy = RetryPolicy()
    #: Per-tenant QPS quota (token-bucket rate); None disables quotas.
    tenant_qps: float | None = None
    #: Token-bucket burst capacity per tenant.
    tenant_burst: float = 8.0
    #: Consecutive terminal batch failures before a tenant's breaker
    #: opens.
    breaker_failures: int = 3
    #: Seconds an open breaker waits before half-opening a probe.
    breaker_reset_s: float = 1.0
    #: Queue load (in_flight / max_queue_depth) entering DEGRADED.
    degrade_at: float = 0.5
    #: Queue load entering DRAINING.
    drain_at: float = 0.9
    #: Hysteresis: recover below threshold * recover_ratio.
    recover_ratio: float = 0.6
    #: max_wait_s multiplier while DEGRADED (DRAINING flushes at 0).
    degraded_wait_scale: float = 0.25
    #: max_batch_queries multiplier while DEGRADED / DRAINING.
    degraded_batch_scale: float = 0.5
    draining_batch_scale: float = 0.25
    #: Minimum admitted priority per state (submissions below are shed).
    degraded_min_priority: int = 0
    draining_min_priority: int = 1
    #: Seed for the server's deterministic backoff-jitter stream.
    seed: int = 0x5E12


class HealthMonitor:
    """Healthy / degraded / draining, driven by measured queue load.

    ``observe(load)`` is fed ``in_flight / max_queue_depth`` on every
    admission and batch completion.  The state scales the admission
    knobs (via :attr:`wait_scale` / :attr:`batch_scale`) so batches
    close sooner under pressure, and raises the admission floor
    (:attr:`min_priority`) so the lowest-priority work is shed first —
    the measured-occupancy feedback loop ROADMAP item 1(d) names as the
    autotuner's input.
    """

    def __init__(self, config: ResilienceConfig):
        self.config = config
        self.state = HealthState.HEALTHY
        self.transitions = 0

    def observe(self, load: float) -> HealthState:
        cfg = self.config
        new = self.state
        if self.state is HealthState.HEALTHY:
            if load >= cfg.drain_at:
                new = HealthState.DRAINING
            elif load >= cfg.degrade_at:
                new = HealthState.DEGRADED
        elif self.state is HealthState.DEGRADED:
            if load >= cfg.drain_at:
                new = HealthState.DRAINING
            elif load < cfg.degrade_at * cfg.recover_ratio:
                new = HealthState.HEALTHY
        else:                                   # DRAINING
            if load < cfg.degrade_at * cfg.recover_ratio:
                new = HealthState.HEALTHY
            elif load < cfg.drain_at * cfg.recover_ratio:
                new = HealthState.DEGRADED
        if new is not self.state:
            self.transitions += 1
            self.state = new
        return self.state

    @property
    def wait_scale(self) -> float:
        """Multiplier on ``max_wait_s`` (0.0 = flush immediately)."""
        if self.state is HealthState.HEALTHY:
            return 1.0
        if self.state is HealthState.DEGRADED:
            return self.config.degraded_wait_scale
        return 0.0

    @property
    def batch_scale(self) -> float:
        """Multiplier on ``max_batch_queries`` (floored at 1)."""
        if self.state is HealthState.HEALTHY:
            return 1.0
        if self.state is HealthState.DEGRADED:
            return self.config.degraded_batch_scale
        return self.config.draining_batch_scale

    @property
    def min_priority(self) -> int | None:
        """Lowest admitted priority, or None when nothing is shed."""
        if self.state is HealthState.HEALTHY:
            return None
        if self.state is HealthState.DEGRADED:
            return self.config.degraded_min_priority
        return self.config.draining_min_priority

    def snapshot(self) -> dict:
        return {"state": self.state.value,
                "transitions": self.transitions,
                "wait_scale": self.wait_scale,
                "batch_scale": self.batch_scale,
                "min_priority": self.min_priority}
