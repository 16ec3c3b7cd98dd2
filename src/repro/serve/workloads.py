"""Served workloads: window-local HE programs plus the service contract.

A :class:`ServedWorkload` is what the serving layer deploys: an HE
program parameterized by a :class:`~repro.fhe.packing.SlotLayout`, with
the contract that the program is **window-local** — every result slot of
window ``i`` depends only on window ``i``'s input slots.  Rotations must
stay inside the window (``rotate_sum``/``replicate`` at the window
width, or shifts that are multiples of nothing crossing a boundary);
element-wise ops are always window-local.  Under that contract, packing
many queries into disjoint windows of one ciphertext and executing the
plan once serves every query.

:func:`scoring_workload` is the reference served program: encrypted
linear scoring (plaintext weights), an in-window reduction, and a
squaring activation — the inference-serving kernel under private-ML
scenarios, exercising plaintext multiply, rotations, and key switching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import engine
from repro.fhe.encoder import CkksEncoder
from repro.fhe.noise import result_headroom
from repro.fhe.packing import SlotLayout
from repro.fhe.params import CkksParameters
from repro.trace import SymbolicEvaluator, TracingEvaluator

#: A served program: ``program(ev, source_ct) -> result_ct``.
ServedProgram = Callable


@dataclass(frozen=True)
class ServedWorkload:
    """One deployable workload: a window-local program family.

    ``build_program(layout)`` returns the program for one layout; the
    layer compiles it once per (workload, params) into a shared,
    immutable :class:`~repro.engine.ExecutablePlan`
    (:func:`repro.serve.cache.shared_plan`).  ``result_slots`` says how
    many leading slots of each window carry the query's answer (1 for
    reduction-style programs).

    ``input_bound`` is the query domain — the largest |x| a slot may
    carry; :meth:`repro.serve.PlanServer.submit` refuses a query past
    it.  ``result_bound`` is the largest |result| a query in that domain
    can produce.  With it declared, the plan enters at the lowest level
    whose output modulus still holds the result (:meth:`entry_level`),
    and the deploy-time lint (``HE031``) holds the plan to it; without
    it the plan enters at ``max_level``.
    """

    name: str
    width: int
    build_program: Callable[[SlotLayout], ServedProgram]
    result_slots: int = 1
    input_bound: float | None = None
    result_bound: float | None = None

    def layout(self, params: CkksParameters) -> SlotLayout:
        return SlotLayout.for_params(params, self.width)

    def entry_level(self, params: CkksParameters) -> int:
        """The lowest level the program runs from with its result in
        headroom (:func:`repro.fhe.noise.result_headroom`), found on the
        symbolic evaluator; ``max_level`` with no ``result_bound`` or
        when no level holds it (the deploy lint then refuses the
        plan)."""
        if self.result_bound is None:
            return params.max_level
        body = self.build_program(self.layout(params))
        ev = SymbolicEvaluator(params)
        for level in range(params.max_level + 1):
            try:
                out = body(ev, ev.fresh(level))
            except ValueError:          # runs out of levels
                continue
            if result_headroom(params, out.level, out.scale,
                               self.result_bound) >= 0:
                return level
        return params.max_level

    def compile(self, params: CkksParameters) -> engine.ExecutablePlan:
        """The plan recorded at :meth:`entry_level`, strictly linted.

        Recording runs nothing: the program is traced on the shape-only
        :class:`~repro.trace.SymbolicEvaluator` with a real encoder, so
        the payloads are real plaintexts and no key, encryption or
        transform is made.  Every tenant replays the plan against its
        own keys (``ExecutablePlan.execute`` is key-agnostic).
        """
        plan = self._compile_at(params, self.entry_level(params))
        # Serve plans are replayed for many tenants per batch, so a
        # defect is amplified by the whole fleet: always lint strict.
        plan.lint_report = plan.lint()
        plan.lint_report.raise_for_errors()
        return plan

    def _compile_at(self, params: CkksParameters,
                    level: int) -> engine.ExecutablePlan:
        """The plan recorded from a source at ``level``, with the
        annotations the deploy lint reads."""
        layout = self.layout(params)
        name = f"serve/{self.name}"
        ev = TracingEvaluator(SymbolicEvaluator(
            params, encoder=CkksEncoder(params)), name=name)
        result = self.build_program(layout)(ev, ev.fresh(level))
        ev.trace.output_op_id = ev.producer_of(result)
        plan = engine.compile(ev.trace, name=name)
        self._annotate(plan, layout)
        return plan

    def _annotate(self, plan: engine.ExecutablePlan,
                  layout: SlotLayout) -> None:
        """Stamp the batcher's slot windows onto the plan's sources and
        the declared result bound onto its output.

        The static checkers in :mod:`repro.analysis` read them:
        ``HE040``/``HE041`` the ``meta["slot_windows"]`` of SOURCE ops,
        so the disjoint/power-of-two-aligned contract the batcher relies
        on is checked at deploy time, and ``HE031`` the output op's
        ``meta["result_bound"]``.
        """
        from repro.trace.ir import OpKind
        windows = [[layout.offset(i), layout.width]
                   for i in range(layout.capacity)]
        for op in plan.trace.ops:
            if op.kind is OpKind.SOURCE:
                op.meta["slot_windows"] = windows
        if self.result_bound is not None:
            output = plan.trace.op(plan.trace.output_op_id)
            output.meta["result_bound"] = self.result_bound


def scoring_workload(width: int,
                     weights: np.ndarray | None = None,
                     name: str | None = None) -> ServedWorkload:
    """Encrypted scoring: ``square(sum_j w_j * x_j)`` per window.

    One plaintext multiply (the weight vector tiled across windows), a
    window-local rotate-and-add reduction, and a squaring activation;
    each query's score lands in its window's first slot.  The square is
    left unrelinearized (``relinearize=False``): the server only
    decrypts it, with ``(1, s, s^2)``, so a batch key-switches only in
    its two rotation groups and a tenant holds no relinearization key.
    ``weights`` defaults to a deterministic ramp of length ``width``.
    """
    if weights is None:
        weights = 0.5 + np.arange(width) / (2.0 * width)
    weights = np.asarray(weights, dtype=float)
    if len(weights) != width:
        raise ValueError(f"need {width} weights, got {len(weights)}")

    def build(layout: SlotLayout) -> ServedProgram:
        tiled = np.tile(weights, layout.capacity)

        def score(ev, ct):
            pt = ev.encoder.encode(tiled)
            prod = ev.poly_mult(ct, pt, rescale=True)
            acc = layout.rotate_sum(ev, prod)
            return ev.he_square(acc, rescale=True, relinearize=False)

        return score

    input_bound = 1.0
    return ServedWorkload(name=name or f"score-w{width}", width=width,
                          build_program=build, result_slots=1,
                          input_bound=input_bound,
                          result_bound=float(np.abs(weights).sum()
                                             * input_bound) ** 2)
