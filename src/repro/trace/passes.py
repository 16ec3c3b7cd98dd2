"""Trace passes: the compile pipeline between recording and lowering.

A *pass* is a callable ``OpTrace -> OpTrace``.  :func:`run_passes` applies
a sequence of them; :data:`DEFAULT_PASSES` is the standard pipeline the
engine (:mod:`repro.engine`) runs when compiling a program:

* :func:`validate_trace` — trace-level invariants (the op-stream
  counterpart of :mod:`repro.trace.invariants`' DAG checks): op ids are
  dense and ordered, inputs reference earlier ops, levels are in range,
  every op has the input count, key and output level its row of the
  op table (:mod:`repro.trace.ops`) prescribes;
* :func:`expand_implicit_rescales` — ops recorded with an implicit
  rescale (``he_mult(..., rescale=True)`` etc.) are split into the op
  plus an explicit ``RESCALE`` op, because that work is really executed.
  Historically this expansion lived inside ``lowering.py``; as a pass it
  is visible to every backend (simulation *and* replay) uniformly.

No pass touches hoisting: Galois ops share a Decomp+ModUp exactly when
they read one value (:func:`repro.trace.ops.galois_groups`), which
replay derives from the data flow.

Passes never mutate their input: they return either the input unchanged
(pure validation) or a rebuilt :class:`OpTrace`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import replace

from .ir import OpKind, OpTrace, TraceOp
from .ops import OPS, expected_out_level, structural_problems


class TraceValidationError(ValueError):
    """A recorded trace violates a structural invariant."""


def validate_trace(trace: OpTrace) -> OpTrace:
    """Check trace-level invariants; returns the trace unchanged.

    Raises :class:`TraceValidationError` listing every violation.
    """
    problems: list[str] = []
    max_level = trace.params.max_level
    for position, op in enumerate(trace.ops):
        where = f"op {op.op_id} ({op.kind.value})"
        malformed = structural_problems(op, position)
        problems += [f"{where}: {problem}" for problem in malformed]
        for label, level in (("level", op.level),
                             ("out_level", op.out_level)):
            if not 0 <= level <= max_level:
                problems.append(f"{where}: {label} {level} outside "
                                f"[0, {max_level}]")
        spec = OPS[op.kind]
        if spec.key is not None and not op.key:
            problems.append(f"{where}: key-switch op without a key id")
        if malformed:
            continue    # the level rule may read what is missing
        expected = expected_out_level(spec, op.level, op.meta, max_level)
        if expected is not None and op.out_level != expected:
            step = "one level" if expected == op.level - 1 \
                else f"level {expected}"
            problems.append(f"{where}: {op.kind.value} {op.level} -> "
                            f"{op.out_level} is not {step}")
    if problems:
        summary = "\n  ".join(problems[:20])
        more = f"\n  ... {len(problems) - 20} more" \
            if len(problems) > 20 else ""
        raise TraceValidationError(
            f"{len(problems)} trace invariant violations:\n  "
            f"{summary}{more}")
    return trace


def expand_implicit_rescales(trace: OpTrace) -> OpTrace:
    """Split ops recorded with ``meta["rescaled"]`` into op + ``RESCALE``.

    The producing op keeps its operating level as its output level; the
    inserted ``RESCALE`` op consumes it and lands on the original output
    level, so downstream consumers see the same producer level the fused
    recording implied.  Idempotent: the split ops drop the ``rescaled``
    flag.
    """
    if not any(op.meta.get("rescaled") for op in trace.ops):
        return trace
    out = OpTrace(params=trace.params, name=trace.name)
    # remap: who *produces* an old op's value afterwards — consumers and
    # the program output follow the inserted RESCALE (a fused op's
    # result object was the rescaled ciphertext).  self_map: the op's
    # own new id — payloads stay attached to the op that used them.
    remap: dict[int, int] = {}
    self_map: dict[int, int] = {}
    for op in trace.ops:
        inputs = tuple(remap[i] for i in op.inputs)
        rescaled = op.meta.get("rescaled", False)
        meta = {k: v for k, v in op.meta.items() if k != "rescaled"}
        new_id = len(out.ops)
        self_map[op.op_id] = new_id
        if not rescaled:
            out.append(replace(op, op_id=new_id, inputs=inputs, meta=meta))
            remap[op.op_id] = new_id
            continue
        # The fused recording reports the post-rescale level; the split
        # op itself produces at its operating level.
        out.append(replace(op, op_id=new_id, inputs=inputs, meta=meta,
                           out_level=op.level,
                           out_scale=op.out_scale
                           * trace.params.moduli[op.level]))
        rescale_id = len(out.ops)
        out.append(TraceOp(op_id=rescale_id, kind=OpKind.RESCALE,
                           inputs=(new_id,), level=op.level,
                           out_level=op.out_level, out_scale=op.out_scale,
                           region=op.region))
        remap[op.op_id] = rescale_id
    for old_id, payload in trace.payloads.items():
        out.payloads[self_map[old_id]] = payload
    if trace.output_op_id is not None:
        out.output_op_id = remap[trace.output_op_id]
    return out


#: The standard compile pipeline (what ``repro.engine.compile`` runs).
DEFAULT_PASSES = (validate_trace, expand_implicit_rescales)


def run_passes(trace: OpTrace,
               passes: Iterable[Callable[[OpTrace], OpTrace]]
               = DEFAULT_PASSES) -> OpTrace:
    """Apply a sequence of passes left to right."""
    for trace_pass in passes:
        trace = trace_pass(trace)
    return trace
