"""Program -> Plan -> Run: the compile/run facade over the trace stack.

An *HE program* is any callable taking one argument — an evaluator
exposing the :class:`~repro.fhe.evaluator.CkksEvaluator` call surface —
and issuing operations against it.  :func:`compile_program` records one
execution through the trace recorder, validates the trace
(:func:`~repro.trace.validate_trace`), lowers it to a checked BlockSim
DAG, and returns an :class:`ExecutablePlan` that owns the whole
artifact chain and retargets it:

* :meth:`ExecutablePlan.simulate` — BlockSim under a feature set;
* :meth:`ExecutablePlan.profile` — per-HE-op cycle attribution (join of
  the simulator's per-block records back onto trace ops);
* :meth:`ExecutablePlan.execute` — replay the trace against a real
  :class:`~repro.fhe.CkksContext`, bit-identical to direct execution.

Symbolic compiles are memoized (``lru_cache``): compiling the same
program at the same parameters returns the *same* plan object, so
feature-set sweeps (fig7's cumulative ladder, fig8's LDS scan) compile
once and simulate many times.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.blocksim import BlockGraphSimulator, BlockTable, WorkloadMetrics
from repro.fhe.params import CkksParameters
from repro.gme.features import FeatureSet
from repro.trace import (OpKind, OpTrace, Schedule, SymbolicEvaluator,
                         TraceValidationError, TracingEvaluator,
                         dag_violations, lower_trace, schedule,
                         validate_trace)
from repro.trace.invariants import _summary
from repro.trace.ir import TraceOp
from repro.trace.ops import OPS

if TYPE_CHECKING:
    from repro.analysis import DiagnosticReport
    from repro.fhe.ciphertext import Ciphertext
    from repro.fhe.poly import Polynomial
    from repro.gpusim.config import GpuConfig

#: An HE program: any callable issuing evaluator ops on its argument.
HeProgram = Callable[[Any], Any]


class PlanError(RuntimeError):
    """A plan was asked for something its artifacts cannot provide."""


# ---------------------------------------------------------------------------
# profiling result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpProfile:
    """Attributed cost of one trace op under one simulated feature set."""

    op_id: int
    kind: str
    region: str
    key: str | None
    level: int
    blocks: int
    cycles: float
    compute_cycles: float
    dram_cycles: float
    onchip_cycles: float
    dram_bytes: float


@dataclass(frozen=True)
class PlanProfile:
    """Per-HE-op cycle attribution for one (plan, feature set) pair.

    ``total_cycles`` equals the cycles :meth:`ExecutablePlan.simulate`
    reports for the same feature set — the records are captured by the
    simulator run itself, not by a parallel timing model.
    """

    name: str
    features: FeatureSet
    metrics: WorkloadMetrics
    ops: tuple[OpProfile, ...]

    @property
    def total_cycles(self) -> float:
        return self.metrics.cycles

    def by_kind(self) -> dict[str, float]:
        """Cycles aggregated per op kind (descending)."""
        totals: Counter[str] = Counter()
        for op in self.ops:
            totals[op.kind] += op.cycles
        return dict(totals.most_common())

    def by_region(self) -> dict[str, float]:
        """Cycles aggregated per recorded program region (descending)."""
        totals: Counter[str] = Counter()
        for op in self.ops:
            totals[op.region] += op.cycles
        return dict(totals.most_common())

    def top(self, n: int = 10) -> list[OpProfile]:
        """The ``n`` most expensive ops."""
        return sorted(self.ops, key=lambda op: op.cycles,
                      reverse=True)[:n]


@dataclass
class PlanExecution:
    """Result of replaying a plan's trace on a real context.

    ``values`` maps an op id to the ciphertext replay produced for it:
    every op but the products replay fuses into their rescale
    (:attr:`~repro.trace.ops.Schedule.fused_rescales`), whose unrescaled
    value is never made — the rescale op's entry holds the fused result.
    """

    trace: OpTrace
    values: dict[int, Any]

    @property
    def output(self) -> Any:
        """The value the traced program returned.

        Uses the trace's recorded ``output_op_id`` (the program's actual
        return value, which need not be the final op — e.g. a program
        returning one rotation out of a batch); falls back to the final
        op when the program returned nothing the recorder tracked.
        """
        op_id = self.trace.output_op_id
        if op_id is None:
            op_id = self.trace.ops[-1].op_id
        return self.values[op_id]


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

class ExecutablePlan:
    """A compiled HE program: trace + lowered DAG + retargetable runs.

    Built one way: the constructor validates the trace
    (:func:`~repro.trace.validate_trace`), lowers it and checks the block
    DAG, and refuses either defect with a
    :class:`~repro.trace.TraceValidationError`.
    """

    def __init__(self, trace: OpTrace, name: str) -> None:
        graph = lower_trace(validate_trace(trace))
        problems = dag_violations(graph, params=trace.params,
                                  require_keyswitch_meta=True)
        if problems:
            raise TraceValidationError(_summary(problems, "DAG"))
        self.params = trace.params
        self.graph = graph
        self.name = name
        self.trace = trace
        #: The most recent lint report (:class:`repro.analysis.
        #: DiagnosticReport`) of this plan's trace; ``None`` until the
        #: plan is compiled or re-checked with ``lint=`` requested.
        self.lint_report: DiagnosticReport | None = None
        #: Artifact provenance (tool, fingerprint, source path) for
        #: plans loaded from an ``.rpa`` container via
        #: :func:`repro.artifact.load_plan`; ``None`` for freshly
        #: compiled plans.
        self.provenance: dict[str, Any] | None = None
        self._sim_cache: dict[FeatureSet, WorkloadMetrics] = {}
        self._profile_cache: dict[FeatureSet, PlanProfile] = {}
        #: LABS on / off -> block issue order (rows of :attr:`table`).
        #: Nothing else a feature set carries moves the order, so a
        #: sweep schedules once.
        self._orders: dict[bool, list[int]] = {}

    @functools.cached_property
    def table(self) -> BlockTable:
        """The block DAG as BlockSim walks it, built at the first
        simulate or profile and read by every run after it."""
        return BlockTable(self.graph)

    @functools.cached_property
    def schedule(self) -> Schedule:
        """Replay's decisions about the trace (:func:`~repro.trace.
        schedule`), made at the first execute: a plan that is only
        simulated never needs them."""
        return schedule(self.trace)

    def lint(self, **kwargs: Any) -> DiagnosticReport:
        """Lint this plan's trace (:func:`repro.analysis.analyze_trace`).

        The report is cached on :attr:`lint_report` (plans are
        immutable) unless non-default check options are passed.
        """
        from repro.analysis import analyze_trace
        if kwargs:
            return analyze_trace(self.trace, name=self.name, **kwargs)
        if self.lint_report is None:
            self.lint_report = analyze_trace(self.trace, name=self.name)
        return self.lint_report

    def __repr__(self) -> str:
        return (f"ExecutablePlan({self.name!r}, "
                f"{self.graph.number_of_nodes()} blocks, "
                f"{len(self.trace)} ops)")

    @property
    def num_blocks(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def fingerprint(self) -> str:
        """Content fingerprint (name + parameters + artifact counts) —
        the same value a saved ``.rpa`` artifact stamps in its header,
        so a loaded plan and its source file compare by string equality.
        """
        from repro.artifact import artifact_view
        return artifact_view(self).fingerprint

    # -- artifact round-trip -------------------------------------------------

    def save(self, path: str, *, include_payloads: bool = True) -> None:
        """Write this plan as an ``.rpa`` artifact.

        The container carries the trace op tables, the provenance, and
        (for real-mode compiles, unless ``include_payloads=False``) the
        recorded plaintext payloads.
        :func:`repro.engine.load_plan` lowers the trace again into a plan
        that simulates and profiles identically and — with payloads —
        executes bit-identically.
        """
        from repro.artifact import save_plan
        save_plan(self, path, include_payloads=include_payloads)

    # -- back-end: architectural simulation --------------------------------

    def simulate(self, features: FeatureSet,
                 config: GpuConfig | None = None) -> WorkloadMetrics:
        """Run the plan's DAG through BlockSim under ``features``.

        Results are cached per feature set (plans are immutable), so
        sweeps re-simulate only new configurations.  Pass ``config`` (a
        :class:`~repro.gpusim.config.GpuConfig`) to bypass the cache and
        time against a non-default GPU model.
        """
        if config is not None:
            return BlockGraphSimulator(features, params=self.params,
                                       config=config).run(self.table,
                                                          self.name)
        if features not in self._sim_cache:
            self._sim_cache[features] = self._run(features)
        return self._sim_cache[features]

    def _run(self, features: FeatureSet,
             per_op: dict[Any, list[float]] | None = None,
             ) -> WorkloadMetrics:
        """One BlockSim run over :attr:`table` in this plan's block order
        for ``features``, computed by the first run that needs it."""
        simulator = BlockGraphSimulator(features, params=self.params)
        table = self.table
        order = self._orders.get(features.labs)
        if order is None:
            order = self._orders[features.labs] = simulator._order(table)
        return simulator.run(table, self.name, order=order, per_op=per_op)

    # -- back-end: per-op attribution --------------------------------------

    def profile(self, features: FeatureSet) -> PlanProfile:
        """Simulate under ``features`` and attribute cycles to trace ops.

        The run folds each block into the row of the trace op it lowers
        (the ``op_id`` metadata lowering stamps on every block), giving
        per-HE-op (and per-region) cycle/byte attribution.  The profile's
        ``total_cycles`` equals :meth:`simulate`'s cycle count for the
        same feature set.
        """
        if features in self._profile_cache:
            return self._profile_cache[features]
        # One folding run per (plan, features), first profile only; its
        # metrics seed the simulate cache (simulation is deterministic,
        # so a prior simulate() saw identical cycles).
        per_op: dict[Any, list[float]] = {}
        metrics = self._run(features, per_op=per_op)
        ops = []
        for op_id, (blocks, cycles, compute_cycles, dram_cycles,
                    onchip_cycles, dram_bytes) in per_op.items():
            trace_op = self.trace.ops[op_id]
            ops.append(OpProfile(
                op_id=op_id,
                kind=trace_op.kind.value,
                region=trace_op.region,
                key=trace_op.key,
                level=trace_op.level,
                blocks=int(blocks),
                cycles=cycles,
                compute_cycles=compute_cycles,
                dram_cycles=dram_cycles,
                onchip_cycles=onchip_cycles,
                dram_bytes=dram_bytes,
            ))
        profile = PlanProfile(name=self.name, features=features,
                              metrics=metrics, ops=tuple(ops))
        self._profile_cache[features] = profile
        self._sim_cache.setdefault(features, metrics)
        return profile

    # -- back-end: functional replay ----------------------------------------

    def execute(self, ctx: Any, sources: Any = None) -> PlanExecution:
        """Replay the recorded trace against a real CKKS context.

        ``sources`` supplies the ciphertexts for the trace's ``SOURCE``
        ops: a single ciphertext (one source), a sequence in source
        order, or a mapping of source op id to ciphertext; one above its
        op's recorded level is ``mod_drop``\\ ped to it (the schedule's
        ``entry_level`` for a single source), one below is a
        :class:`PlanError`.  The replay follows the recorded op stream as
        :attr:`schedule` decides it: it raises c1 once for every Galois
        group and runs a product whose only reader is a rescale as one
        rescaled product, so given the same source ciphertexts and keys
        it is bit-identical to running the program directly against
        ``ctx.evaluator`` (see :func:`bit_identical`);
        :attr:`PlanExecution.values` has no entry for a fused product.
        Every switching key the trace names that the context does not
        hold at the plan's highest key-switch level is drawn first, at
        that level, as one batch
        (:meth:`repro.fhe.keys.KeyGenerator.switching_keys`).
        """
        if ctx.params != self.params:
            raise PlanError(
                "context parameters differ from the plan's; compile the "
                "program at the context's parameters first")
        sched = self.schedule
        source_map = self._source_map(sched.sources, sources)
        ev = ctx.evaluator
        ev.keygen.switching_keys(sched.key_ids, sched.key_level)
        values: dict[int, Any] = {}
        raised: dict[int, Any] = {}
        for op in self.trace.ops:
            if op.op_id in values:
                continue        # a fused rescale, made with its product
            rescale = sched.fused_rescales.get(op.op_id)
            args = [values[i] for i in op.inputs]
            values[op.op_id if rescale is None else rescale] = \
                self._replay_op(ev, op, args, source_map, raised,
                                rescale is not None)
        return PlanExecution(trace=self.trace, values=values)

    @staticmethod
    def _source_map(source_ids: tuple[int, ...],
                    sources: Any) -> dict[int, Any]:
        if sources is None:
            return {}
        if isinstance(sources, dict):
            return dict(sources)
        if isinstance(sources, (list, tuple)):
            if len(sources) > len(source_ids):
                raise PlanError(
                    f"{len(sources)} sources supplied but the trace has "
                    f"only {len(source_ids)} SOURCE ops")
            return dict(zip(source_ids, sources))
        # A single ciphertext for a single-source trace.
        return dict(zip(source_ids, [sources]))

    def _replay_op(self, ev: Any, op: TraceOp, args: list[Any],
                   source_map: dict[int, Any], raised: dict[int, Any],
                   rescale: bool = False) -> Any:
        """Apply one recorded op the way its row of the op table says.

        A Galois op of a group applies its map to the value's raised
        digits: the group's first op raises them into ``raised``, its
        last drops them.  ``rescale`` runs a product fused into the
        rescale that reads it.  The trace passed validation, so every
        op has its row's inputs and ``meta``.

        The method is looked up on ``ev`` at call time, so a proxy
        evaluator sees every replayed call.
        """
        spec = OPS[op.kind]
        if op.kind is OpKind.SOURCE:
            if op.op_id not in source_map:
                raise PlanError(
                    f"no source ciphertext supplied for SOURCE op "
                    f"{op.op_id} (level {op.level})")
            ct = source_map[op.op_id]
            if ct.level < op.level:
                raise PlanError(
                    f"source for op {op.op_id} is at level {ct.level}, "
                    f"below the recorded level {op.level}")
            if ct.level == op.level:
                return ct
            # A ciphertext mod Q_l is one mod Q_l' for l' < l: dropping
            # the extra limbs is exact.
            return ev.mod_drop(ct, ct.level - op.level)
        if not spec.real:
            raise PlanError(
                f"op {op.op_id} ({op.kind.value}) is symbolic-only and "
                "cannot replay on a real evaluator")
        if spec.method is None:     # COPY
            return args[0].copy()
        if spec.payload:
            payload = self.trace.payloads.get(op.op_id)
            if payload is None:
                raise PlanError(
                    f"op {op.op_id} ({op.kind.value}) has no recorded "
                    "plaintext payload; it replays only from a trace "
                    "recorded in real mode or a plan loaded from an "
                    ".rpa that carries the PAYLOADS section")
            args.append(payload)
        args += [op.meta[key] for key in spec.meta_args]
        if spec.fused_rescale:
            args.append(rescale)
        sched = self.schedule
        group = sched.galois_groups.get(op.inputs[0])
        if group is None or op.op_id not in group:
            flags = {"relinearize": False} \
                if op.op_id in sched.unrelinearized else {}
            return getattr(ev, spec.method)(*args, **flags)
        value = op.inputs[0]
        if value not in raised:
            raised[value] = ev._hoist(args[0])
        hoisted = raised.pop(value) if op.op_id == group[-1] \
            else raised[value]
        # A conjugation is the Galois op with no rotation amount.
        return ev._galois(hoisted.ct, args[1] if len(args) > 1 else None,
                          hoisted)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def compile_program(program: HeProgram | str | OpTrace,
                    params: CkksParameters | None = None, *,
                    name: str | None = None, context: Any = None,
                    lint: str | None = None) -> ExecutablePlan:
    """Compile an HE program into an :class:`ExecutablePlan`.

    ``program`` may also be a registered workload name
    (``engine.compile("boot")``), which delegates to the workload
    catalog (:func:`repro.workloads.registry.compile_workload`) and
    returns the same memoized plan object the registry would — the one
    front door covers both ad-hoc programs and the catalog.  Named
    workloads compile symbolically; combining a name with ``context``
    raises.  A pre-recorded :class:`~repro.trace.OpTrace` (e.g. one
    :func:`repro.artifact.load_trace` read) compiles without re-tracing.

    ``lint`` runs the static analyzer (:mod:`repro.analysis`) over the
    compiled trace: ``"warn"`` emits the report as a
    :class:`~repro.analysis.LintWarning`, ``"strict"`` raises
    :class:`~repro.analysis.LintError` on any error-severity finding.
    For an :class:`~repro.trace.OpTrace` input the linter runs *before*
    validation, so strict mode reports malformed traces as diagnostics
    rather than a :class:`~repro.trace.TraceValidationError`.  The report is
    kept on :attr:`ExecutablePlan.lint_report`; linting does not affect
    plan memoization.

    Without ``context``, the program is traced through the shape-only
    :class:`~repro.trace.SymbolicEvaluator` at ``params`` (default:
    paper parameters) — milliseconds even at paper scale — and the
    result is memoized: the same (program, params, name)
    tuple returns the same plan object (``name`` defaults to the
    program's ``__name__``, so call sites that label the same program
    differently get distinct plans).

    With ``context`` (a :class:`~repro.fhe.CkksContext`), the program
    runs *functionally* through a tracer wrapping the context's real
    evaluator; the resulting plan carries concrete plaintext payloads
    and supports :meth:`ExecutablePlan.execute` bit-identical replay.
    Real-mode compiles are not cached (they embed live ciphertext data).
    """
    if lint not in (None, "warn", "strict"):
        raise ValueError(f"lint={lint!r}; expected None, 'warn' or "
                         "'strict'")
    if isinstance(program, str):
        if context is not None:
            raise ValueError(
                f"workload {program!r} is compiled from the catalog and "
                "cannot take a real-mode context; pass the program "
                "callable instead")
        from repro.workloads.registry import compile_workload
        return _apply_lint(compile_workload(program, params), lint)
    if isinstance(program, OpTrace):
        if context is not None:
            raise ValueError("a pre-recorded trace cannot take a "
                             "real-mode context")
        if params is not None and params != program.params:
            raise ValueError("params and trace.params disagree")
        return _plan_from_trace(program, name, lint)
    if context is not None:
        if params is not None and params != context.params:
            raise ValueError("params and context.params disagree")
        resolved_name = name or getattr(program, "__name__", "program")
        return _apply_lint(_build_plan(program, context.params,
                                       resolved_name, context), lint)
    params = params or CkksParameters.paper()
    resolved_name = name or getattr(program, "__name__", "program")
    return _apply_lint(
        _compile_symbolic(program, params, resolved_name), lint)


def _apply_lint(plan: ExecutablePlan,
                lint: str | None) -> ExecutablePlan:
    """Run the static analyzer over a compiled plan per ``lint`` mode."""
    if lint is None:
        return plan
    _report_lint(plan.lint(), lint)
    return plan


def _report_lint(report: DiagnosticReport, lint: str) -> None:
    """Raise on errors (``"strict"``) or warn with the rendered report
    (``"warn"``).  Called one frame below :func:`compile_program`, so
    ``stacklevel=4`` attributes the warning to its caller."""
    if lint == "strict":
        report.raise_for_errors()
    elif len(report):
        import warnings

        from repro.analysis import LintWarning
        warnings.warn(report.render(), LintWarning, stacklevel=4)


def _plan_from_trace(trace: OpTrace, name: str | None,
                     lint: str | None) -> ExecutablePlan:
    """Compile a pre-recorded trace (lint first, then validate)."""
    report: DiagnosticReport | None = None
    if lint is not None:
        from repro.analysis import analyze_trace
        report = analyze_trace(trace, name=name or trace.name)
        _report_lint(report, lint)
    plan = ExecutablePlan(trace, name or trace.name)
    plan.lint_report = report
    return plan


@functools.lru_cache(maxsize=64)
def _compile_symbolic(program: HeProgram, params: CkksParameters,
                      name: str) -> ExecutablePlan:
    return _build_plan(program, params, name, context=None)


def _build_plan(program: HeProgram, params: CkksParameters, name: str,
                context: Any) -> ExecutablePlan:
    inner = SymbolicEvaluator(params) if context is None \
        else context.evaluator
    recorder = TracingEvaluator(inner, name=name)
    result = program(recorder)
    recorder.trace.output_op_id = recorder.producer_of(result)
    return ExecutablePlan(recorder.trace, name)


def clear_plan_cache() -> None:
    """Drop every memoized symbolic plan (benchmarks, tests)."""
    _compile_symbolic.cache_clear()


def plan_cache_info() -> functools._CacheInfo:
    """``lru_cache`` statistics for the symbolic plan cache."""
    return _compile_symbolic.cache_info()


# ---------------------------------------------------------------------------
# bit-identity helpers
# ---------------------------------------------------------------------------

def polynomials_equal(a: Polynomial, b: Polynomial) -> bool:
    """Exact residue-level equality of two ring elements."""
    if a.moduli != b.moduli or a.rep is not b.rep:
        return False
    return all(np.array_equal(la, lb)
               for la, lb in zip(a.limbs, b.limbs))


def bit_identical(ct_a: Ciphertext, ct_b: Ciphertext) -> bool:
    """Exact (residue-for-residue) equality of two ciphertexts, a
    degree-2 product's ``c2`` included."""
    parts_a, parts_b = ct_a.components, ct_b.components
    return (ct_a.level == ct_b.level
            and ct_a.scale == ct_b.scale
            and len(parts_a) == len(parts_b)
            and all(map(polynomials_equal, parts_a, parts_b)))
