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
from typing import Callable

import numpy as np

from repro.blocksim import BlockGraphSimulator, WorkloadMetrics
from repro.dag import DiGraph
from repro.fhe.params import CkksParameters
from repro.gme.features import FeatureSet
from repro.trace import (OpKind, OpTrace, SymbolicEvaluator,
                         TracingEvaluator, assert_workload_dag,
                         lower_trace, validate_trace)
from repro.trace.ir import TraceOp
from repro.trace.ops import (OPS, fused_rescales, galois_groups,
                             switches_key)

#: An HE program: any callable issuing evaluator ops on its argument.
HeProgram = Callable


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
        totals: Counter = Counter()
        for op in self.ops:
            totals[op.kind] += op.cycles
        return dict(totals.most_common())

    def by_region(self) -> dict[str, float]:
        """Cycles aggregated per recorded program region (descending)."""
        totals: Counter = Counter()
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
    (:func:`~repro.trace.ops.fused_rescales`), whose unrescaled value is
    never made — the rescale op's entry holds the fused result.
    """

    trace: OpTrace
    values: dict[int, object]

    @property
    def output(self):
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
    """A compiled HE program: trace + lowered DAG + retargetable runs."""

    def __init__(self, params: CkksParameters, graph: DiGraph,
                 name: str, trace: OpTrace,
                 program: HeProgram | None = None):
        self.params = params
        self.graph = graph
        self.name = name
        self.trace = trace
        self.program = program
        #: The most recent lint report (:class:`repro.analysis.
        #: DiagnosticReport`) of this plan's trace; ``None`` until the
        #: plan is compiled or re-checked with ``lint=`` requested.
        self.lint_report = None
        #: Artifact provenance (tool, fingerprint, source path) for
        #: plans loaded from an ``.rpa`` container via
        #: :func:`repro.artifact.load_plan`; ``None`` for freshly
        #: compiled plans.
        self.provenance: dict | None = None
        self._ops_by_id: dict[int, TraceOp] = \
            {op.op_id: op for op in trace.ops}
        self._sim_cache: dict[FeatureSet, WorkloadMetrics] = {}
        self._profile_cache: dict[FeatureSet, PlanProfile] = {}
        #: LABS on / off -> block issue order.  Nothing else a feature
        #: set carries moves the order, so a sweep schedules once.
        self._orders: dict[bool, list] = {}

    @functools.cached_property
    def _key_ids(self) -> tuple[str, ...]:
        """Every switching key the replay uses, drawn as one batch first
        (worked out at the first execute: a plan that is only simulated
        never needs them)."""
        return tuple(sorted(self.trace.keys_used()))

    @functools.cached_property
    def _key_level(self) -> int:
        """The plan's highest key-switch level: its keys are drawn over
        C_k + P for this k, and serve every lower level by restriction."""
        return max((op.level for op in self.trace.keyswitch_ops()),
                   default=0)

    @functools.cached_property
    def entry_level(self) -> int:
        """The level the plan's first SOURCE op was recorded at: where a
        caller encrypts its input.  Replay drops a source above it to
        it, and refuses one below."""
        for op in self.trace.ops:
            if op.kind is OpKind.SOURCE:
                return op.level
        raise PlanError(f"plan {self.name!r} has no SOURCE op")

    @functools.cached_property
    def _fused(self) -> dict[int, TraceOp]:
        """Rescale op id -> the product it replays with ``rescale=True``,
        over :func:`~repro.trace.ops.fused_rescales`."""
        return {rescale: self._ops_by_id[product]
                for product, rescale in fused_rescales(self.trace).items()}

    @functools.cached_property
    def _galois_reads(self) -> dict[int, tuple[int, int]]:
        """Galois op id -> (the value its group reads, the group's last
        op id), over :func:`~repro.trace.ops.galois_groups`."""
        return {op_id: (value, ops[-1])
                for value, ops in galois_groups(self.trace).items()
                for op_id in ops}

    def lint(self, **kwargs):
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
                 config=None) -> WorkloadMetrics:
        """Run the plan's DAG through BlockSim under ``features``.

        Results are cached per feature set (plans are immutable), so
        sweeps re-simulate only new configurations.  Pass ``config`` (a
        :class:`~repro.gpusim.config.GpuConfig`) to bypass the cache and
        time against a non-default GPU model.
        """
        if config is not None:
            return BlockGraphSimulator(features, params=self.params,
                                       config=config).run(self.graph,
                                                          self.name)
        if features not in self._sim_cache:
            self._sim_cache[features] = self._run(features)
        return self._sim_cache[features]

    def _run(self, features: FeatureSet,
             record: list | None = None) -> WorkloadMetrics:
        """One BlockSim run in this plan's block order for ``features``,
        computed by the first run that needs it."""
        simulator = BlockGraphSimulator(features, params=self.params)
        order = self._orders.get(features.labs)
        if order is None:
            order = self._orders[features.labs] = \
                simulator._order(self.graph)
        return simulator.run(self.graph, self.name, record=record,
                             order=order)

    # -- back-end: per-op attribution --------------------------------------

    def profile(self, features: FeatureSet) -> PlanProfile:
        """Simulate under ``features`` and attribute cycles to trace ops.

        Joins the simulator's per-block records back onto the OpTrace via
        the ``op_id`` metadata lowering stamps on every block, giving
        per-HE-op (and per-region) cycle/byte attribution.  The profile's
        ``total_cycles`` equals :meth:`simulate`'s cycle count for the
        same feature set.
        """
        if features in self._profile_cache:
            return self._profile_cache[features]
        # One recorded run per (plan, features), first profile only; the
        # raw records are folded into OpProfile rows and released, and
        # the run's metrics seed the simulate cache (simulation is
        # deterministic, so a prior simulate() saw identical cycles).
        records: list[dict] = []
        metrics = self._run(features, record=records)
        rows: dict[int, dict] = {}
        for record in records:
            row = rows.setdefault(record["op_id"], {
                "blocks": 0, "cycles": 0.0,
                "compute_cycles": 0.0, "dram_cycles": 0.0,
                "onchip_cycles": 0.0, "dram_bytes": 0.0,
            })
            row["blocks"] += 1
            row["cycles"] += record["end_cycle"] - record["start_cycle"]
            row["compute_cycles"] += record["compute_cycles"]
            row["dram_cycles"] += record["dram_cycles"]
            row["onchip_cycles"] += record["onchip_cycles"]
            row["dram_bytes"] += record["dram_bytes"]
        ops = []
        for op_id, row in rows.items():
            trace_op = self._ops_by_id[op_id]
            ops.append(OpProfile(
                op_id=op_id,
                kind=trace_op.kind.value,
                region=trace_op.region,
                key=trace_op.key,
                level=trace_op.level,
                blocks=row["blocks"],
                cycles=row["cycles"],
                compute_cycles=row["compute_cycles"],
                dram_cycles=row["dram_cycles"],
                onchip_cycles=row["onchip_cycles"],
                dram_bytes=row["dram_bytes"],
            ))
        profile = PlanProfile(name=self.name, features=features,
                              metrics=metrics, ops=tuple(ops))
        self._profile_cache[features] = profile
        self._sim_cache.setdefault(features, metrics)
        return profile

    # -- back-end: functional replay ----------------------------------------

    def execute(self, ctx, sources=None) -> PlanExecution:
        """Replay the recorded trace against a real CKKS context.

        ``sources`` supplies the ciphertexts for the trace's ``SOURCE``
        ops: a single ciphertext (one source), a sequence in source
        order, or a mapping of source op id to ciphertext; one above its
        op's recorded level is ``mod_drop``\\ ped to it (:attr:`entry_level`
        for a single source), one below is a :class:`PlanError`.  The replay
        follows the recorded op stream exactly, raises c1 once for every
        Galois group (:func:`~repro.trace.ops.galois_groups`) and runs a
        product whose only reader is a rescale as one rescaled product
        (:func:`~repro.trace.ops.fused_rescales`), so given the same
        source ciphertexts and keys it is bit-identical to running the
        program directly against ``ctx.evaluator`` (see
        :func:`bit_identical`); :attr:`PlanExecution.values` has no entry
        for a fused product.
        Every switching key the trace names that the context does not
        hold at the plan's highest key-switch level is drawn first, at
        that level, as one batch
        (:meth:`repro.fhe.keys.KeyGenerator.switching_keys`).
        """
        if ctx.params != self.params:
            raise PlanError(
                "context parameters differ from the plan's; compile the "
                "program at the context's parameters first")
        source_map = self._source_map(sources)
        ev = ctx.evaluator
        ev.keygen.switching_keys(self._key_ids, self._key_level)
        values: dict[int, object] = {}
        raised: dict[int, object] = {}
        fused = self._fused
        products = {product.op_id for product in fused.values()}
        for op in self.trace.ops:
            if op.op_id in products:
                continue
            source = fused.get(op.op_id, op)
            args = [values[i] for i in source.inputs]
            values[op.op_id] = self._replay_op(ev, source, args, source_map,
                                               raised, source is not op)
        return PlanExecution(trace=self.trace, values=values)

    def _source_map(self, sources) -> dict[int, object]:
        source_ids = [op.op_id for op in self.trace.ops
                      if op.kind is OpKind.SOURCE]
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

    def _replay_op(self, ev, op: TraceOp, args: list, source_map: dict,
                   raised: dict, rescale: bool = False):
        """Apply one recorded op the way its row of the op table says.

        A Galois op of a group applies its map to the value's raised
        digits: the group's first op raises them into ``raised``, its
        last drops them.  ``rescale`` runs a product fused into the
        rescale that reads it.

        The method is looked up on ``ev`` at call time, so a proxy
        evaluator sees every replayed call.
        """
        spec, meta = OPS[op.kind], op.meta
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
        if len(args) != spec.arity:
            raise PlanError(
                f"op {op.op_id} ({op.kind.value}) cannot replay: it has "
                f"{len(args)} ciphertext inputs, the call takes "
                f"{spec.arity}")
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
        try:
            args += [meta[key] for key in spec.meta_args]
        except KeyError as missing:
            raise PlanError(f"op {op.op_id} ({op.kind.value}) cannot "
                            f"replay: no meta[{missing}]") from None
        if spec.fused_rescale:
            args.append(rescale)
        if op.op_id not in self._galois_reads:
            # A product that switches no key was recorded unrelinearized.
            flags = {"relinearize": False} \
                if spec.relinearize and not switches_key(spec, meta) else {}
            return getattr(ev, spec.method)(*args, **flags)
        value, last = self._galois_reads[op.op_id]
        if value not in raised:
            raised[value] = ev._hoist(args[0])
        hoisted = raised.pop(value) if op.op_id == last else raised[value]
        # A conjugation is the Galois op with no rotation amount.
        return ev._galois(hoisted.ct, args[1] if len(args) > 1 else None,
                          hoisted)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def compile_program(program: "HeProgram | str | OpTrace",
                    params: CkksParameters | None = None, *,
                    name: str | None = None, context=None,
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


def _report_lint(report, lint: str) -> None:
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
    report = None
    if lint is not None:
        from repro.analysis import analyze_trace
        report = analyze_trace(trace, name=name or trace.name)
        _report_lint(report, lint)
    plan = _plan(trace, name or trace.name)
    plan.lint_report = report
    return plan


@functools.lru_cache(maxsize=64)
def _compile_symbolic(program: HeProgram, params: CkksParameters,
                      name: str) -> ExecutablePlan:
    return _build_plan(program, params, name, context=None)


def _build_plan(program: HeProgram, params: CkksParameters, name: str,
                context) -> ExecutablePlan:
    inner = SymbolicEvaluator(params) if context is None \
        else context.evaluator
    recorder = TracingEvaluator(inner, name=name)
    result = program(recorder)
    recorder.trace.output_op_id = recorder.producer_of(result)
    return _plan(recorder.trace, name, program)


def _plan(trace: OpTrace, name: str,
          program: HeProgram | None = None) -> ExecutablePlan:
    """Validate ``trace``, lower it and check the block DAG."""
    graph = lower_trace(validate_trace(trace))
    assert_workload_dag(graph, params=trace.params,
                        require_keyswitch_meta=True)
    return ExecutablePlan(params=trace.params, graph=graph, name=name,
                          trace=trace, program=program)


def clear_plan_cache() -> None:
    """Drop every memoized symbolic plan (benchmarks, tests)."""
    _compile_symbolic.cache_clear()


def plan_cache_info():
    """``lru_cache`` statistics for the symbolic plan cache."""
    return _compile_symbolic.cache_info()


# ---------------------------------------------------------------------------
# bit-identity helpers
# ---------------------------------------------------------------------------

def polynomials_equal(a, b) -> bool:
    """Exact residue-level equality of two ring elements."""
    if a.moduli != b.moduli or a.rep is not b.rep:
        return False
    return all(np.array_equal(la, lb)
               for la, lb in zip(a.limbs, b.limbs))


def bit_identical(ct_a, ct_b) -> bool:
    """Exact (residue-for-residue) equality of two ciphertexts, a
    degree-2 product's ``c2`` included."""
    parts_a, parts_b = ct_a.components, ct_b.components
    return (ct_a.level == ct_b.level
            and ct_a.scale == ct_b.scale
            and len(parts_a) == len(parts_b)
            and all(map(polynomials_equal, parts_a, parts_b)))
