"""Deterministic fault injection for the serving layer.

Resilience code that is only exercised by real outages is untested
code.  :class:`FaultInjectingExecutor` wraps any executor (real,
simulated, or a test stub) and injects faults from a seeded
:class:`FaultPlan`, so every recovery behavior in
:mod:`repro.serve.resilience` — retry with backoff, batch bisection,
circuit breakers, deadline expiry under latency spikes — is tested
reproducibly: the same seed yields the same fault sequence.

Fault kinds (drawn in a fixed order per ``run`` call, so the rng
stream is stable whichever kinds are enabled):

* **poisoned query** — a batch containing a poisoned payload raises a
  *persistent* :class:`InjectedFault` every time; only bisection can
  isolate it (this is the blast-radius scenario: amortization must not
  widen the failure domain);
* **transient fault** — raises
  :class:`~repro.serve.resilience.TransientFault` with probability
  ``transient_rate``; a retry re-enters the wrapper with a fresh draw;
* **latency spike** — sleeps ``latency_spike_s`` and inflates the
  reported service time (deadline / degradation pressure);
* **corrupted result** — flips one query's result after computing
  per-window checksums; the mismatch is caught by
  :func:`window_checksum` verification and raised as
  :class:`~repro.serve.resilience.CorruptedResult` (retryable), so a
  bit flip never reaches a caller silently.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .batcher import Batch, Query
from .resilience import CorruptedResult, TransientFault


class InjectedFault(RuntimeError):
    """A persistent (non-retryable) injected executor fault."""


def window_checksum(result: np.ndarray, decimals: int = 6) -> int:
    """CRC32 of a result window, quantized to ``decimals`` places.

    Quantization (plus ``-0.0`` normalization) makes the checksum a
    stable identity for a served result at the declared precision, so
    verification tolerates float formatting but catches any real flip.
    """
    quantized = np.round(np.asarray(result, dtype=np.float64),
                         decimals) + 0.0
    return zlib.crc32(quantized.tobytes())


@dataclass(frozen=True, eq=False)
class FaultPlan:
    """Seeded description of what to inject (all rates in [0, 1])."""

    seed: int = 0
    transient_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_s: float = 0.0
    corrupt_rate: float = 0.0
    #: Payloads whose queries poison any batch they ride in (matched
    #: with np.array_equal).
    poisoned_payloads: Sequence[np.ndarray] = ()
    #: Optional extra predicate marking poisoned queries.
    is_poisoned: Callable[[Query], bool] | None = field(default=None)

    def poisons(self, query: Query) -> bool:
        if any(np.array_equal(query.values, payload)
               for payload in self.poisoned_payloads):
            return True
        return self.is_poisoned is not None and self.is_poisoned(query)


class FaultInjectingExecutor:
    """Wrap any executor with a seeded fault plan.

    Drop-in at the server's executor seam: exposes the inner executor's
    ``layout`` / ``plan`` and delegates ``run`` with faults injected
    around it.  ``injected`` counts every fault actually fired, so
    tests and the chaos bench can assert the plan was exercised.
    """

    def __init__(self, inner, faults: FaultPlan,
                 checksum_decimals: int = 6):
        self.inner = inner
        self.faults = faults
        self.layout = inner.layout
        self.plan = getattr(inner, "plan", None)
        self.input_bound = getattr(inner, "input_bound", None)
        self.checksum_decimals = checksum_decimals
        self._rng = random.Random(faults.seed)
        self.injected = {"poisoned": 0, "transient": 0,
                         "latency_spike": 0, "corrupt": 0}

    def run(self, batch: Batch) -> tuple[list[np.ndarray], float]:
        plan = self.faults
        if any(plan.poisons(q) for q in batch.queries):
            self.injected["poisoned"] += 1
            raise InjectedFault(
                f"injected persistent fault: poisoned query in tenant "
                f"{batch.tenant!r} batch of {len(batch)}")
        if self._rng.random() < plan.transient_rate:
            self.injected["transient"] += 1
            raise TransientFault("injected transient executor fault")
        results, service_s = self.inner.run(batch)
        if self._rng.random() < plan.latency_spike_rate:
            self.injected["latency_spike"] += 1
            time.sleep(plan.latency_spike_s)
            service_s += plan.latency_spike_s
        checksums = [window_checksum(r, self.checksum_decimals)
                     for r in results]
        if self._rng.random() < plan.corrupt_rate:
            self.injected["corrupt"] += 1
            victim = self._rng.randrange(len(results))
            results = [r.copy() for r in results]
            # A sign-and-offset flip: large enough to survive any
            # round_decimals quantization downstream.
            results[victim] = -results[victim] - 1.0
        bad = [i for i, (r, c) in enumerate(zip(results, checksums))
               if window_checksum(r, self.checksum_decimals) != c]
        if bad:
            raise CorruptedResult(
                f"window checksum mismatch for batch queries {bad} "
                f"(tenant {batch.tenant!r})")
        return results, service_s
