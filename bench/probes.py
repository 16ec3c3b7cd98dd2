"""Span probes hung on the layers' public seams — no file under ``src/``
knows it is being measured.

* :class:`SpanBackend` — ``register_backend("bench-spans")`` subclass of
  the stacked backend with a span around each hot kernel; selected with
  ``dataclasses.replace(params, backend="bench-spans")``, results are
  the stacked backend's bit for bit.
* :class:`EvaluatorProxy` / :class:`ContextProxy` — handed to
  ``plan.execute`` as ``ctx.evaluator`` so every replayed HE op is a
  span.
* :class:`StagedExecutor` — ``RealExecutor.run`` re-stated stage by
  stage (same public calls, same order) with a span per stage.
* :class:`SpanSimulatedExecutor` — the simulated executor under a
  ``run`` span, for the serve-layer-only workload.

Both executors also keep a :class:`BatchLog`: per batch, when it was
picked up, when each of its queries had been submitted and which result
each got — the queue wait a client cannot see.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.fhe import register_backend
from repro.fhe.backend.stacked import StackedBackend
from repro.serve import RealExecutor, SimulatedExecutor

from .metrics import BACKEND_KERNELS, EVALUATOR_METHODS
from .spans import SpanRecorder

#: Name ``CkksParameters.backend`` takes in a traced run.
SPAN_BACKEND = "bench-spans"


@register_backend(SPAN_BACKEND)
class SpanBackend(StackedBackend):
    """The stacked backend with a span around each hot kernel.

    The registry instantiates backends itself (one per tenant context),
    so the recorder cannot be passed in: it is the class attribute
    :attr:`recorder`, set once by the traced run before any context is
    built.  Unset, this class is the stacked backend.
    """

    recorder: SpanRecorder | None = None

    def __init__(self, params):
        super().__init__(params)
        recorder = type(self).recorder
        if recorder is None:
            return
        for kernel in BACKEND_KERNELS:
            # The transforms also carry the limb rows they sweep.
            rows = _limb_rows if kernel.startswith("ntt_") else None
            setattr(self, kernel, recorder.wrap(
                getattr(self, kernel), f"backend.{kernel}", rows))


def _limb_rows(data, moduli) -> int:
    return len(data)


class EvaluatorProxy:
    """A tenant's evaluator with a span around each replayed HE op.

    Only calls that arrive through the proxy are spans: an implicit
    rescale inside ``poly_mult(rescale=True)`` stays inside that op's
    span, exactly as the trace counts it.
    """

    def __init__(self, evaluator, recorder: SpanRecorder):
        self._evaluator = evaluator
        for method in EVALUATOR_METHODS:
            setattr(self, method, recorder.wrap(
                getattr(evaluator, method), f"evaluator.{method}"))

    def __getattr__(self, attr):
        return getattr(self._evaluator, attr)


class ContextProxy:
    """What ``plan.execute`` needs of a context: params + evaluator."""

    def __init__(self, ctx, recorder: SpanRecorder):
        self.params = ctx.params
        self.evaluator = EvaluatorProxy(ctx.evaluator, recorder)


class Ran(NamedTuple):
    """What only the executor can see of a batch."""

    entered: float
    exited: float
    #: ``Query.submitted_at`` per query …
    submitted: list[float]
    #: … and the result handed back for it.  The server resolves each
    #: query's future with this very object, so a reply is matched to
    #: its batch by identity.
    results: list[np.ndarray]


class BatchLog:
    """Every batch an executor ran, in the order they finished."""

    def __init__(self):
        self.batches: list[Ran] = []

    def note(self, batch, entered: float, exited: float, results) -> None:
        self.batches.append(Ran(
            entered, exited, [q.submitted_at for q in batch.queries],
            results))

    def within(self, start: float, end: float) -> list[Ran]:
        """Batches that ran entirely inside [start, end]."""
        return [b for b in self.batches
                if start <= b.entered and b.exited <= end]


class StagedExecutor(RealExecutor):
    """``RealExecutor.run``, stage by stage under spans.

    Same public calls in the same order, so results are the real
    executor's bit for bit (:func:`assert_matches_real` checks one batch
    before a traced window is trusted).
    """

    def __init__(self, *args, recorder: SpanRecorder, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorder = recorder
        self.log = BatchLog()
        #: Seconds of every ``TenantKeyCache.get`` that was a miss.
        self.miss_seconds: list[float] = []

    def run(self, batch):
        span = self.recorder.span
        start = perf_counter()
        with span("run"):
            with self._tenant_lock(batch.tenant):
                misses, asked = self.keys.misses, perf_counter()
                with span("exec.keys_get"):
                    ctx = self.keys.get(batch.tenant, self.params)
                if self.keys.misses != misses:
                    self.miss_seconds.append(perf_counter() - asked)
                with span("exec.pack"):
                    packed = batch.packed_values()
                with span("exec.encrypt"):
                    ct = ctx.encrypt(packed)
                with span("exec.plan_execute"):
                    out = self.plan.execute(
                        ContextProxy(ctx, self.recorder),
                        sources=[ct]).output
                with span("exec.decrypt"):
                    decoded = ctx.decrypt(out).real
            with span("exec.unpack"):
                results = self.layout.unpack_many(
                    decoded, len(batch), take=self.workload.result_slots)
                if self.round_decimals is not None:
                    results = [np.round(r, self.round_decimals)
                               for r in results]
                else:
                    results = [r.copy() for r in results]
        done = perf_counter()
        self.log.note(batch, start, done, results)
        return results, done - start


class SpanSimulatedExecutor(SimulatedExecutor):
    """The simulated executor under a ``run`` span."""

    def __init__(self, *args, recorder: SpanRecorder, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorder = recorder
        self.log = BatchLog()

    def run(self, batch):
        start = perf_counter()
        with self.recorder.span("run"):
            out = super().run(batch)
        self.log.note(batch, start, perf_counter(), out[0])
        return out


def assert_matches_real(staged: StagedExecutor, batch) -> None:
    """One batch through both executors must agree exactly."""
    real = RealExecutor(staged.workload, staged.params,
                        key_cache=staged.keys,
                        round_decimals=staged.round_decimals)
    expected, _ = real.run(batch)
    got, _ = staged.run(batch)
    for want, have in zip(expected, got, strict=True):
        if not np.array_equal(want, have):
            raise AssertionError(
                "StagedExecutor disagrees with RealExecutor.run")
