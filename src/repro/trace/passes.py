"""Trace validation: the one check between recording and lowering.

:func:`validate_trace` holds a trace to its op-stream invariants (the
counterpart of :mod:`repro.trace.invariants`' DAG checks): op ids are
dense and ordered, inputs reference earlier ops, levels are in range,
every op has the input count, key and output level its row of the op
table (:mod:`repro.trace.ops`) prescribes.  The engine
(:mod:`repro.engine`) compiles a program as record -> validate ->
lower -> check the DAG; nothing rewrites a trace in between.  The
recorder already writes what ran: a ``rescale=True`` call is its
product and a ``RESCALE``, and rotations of one value are plain ops
that replay hoists (:func:`repro.trace.ops.galois_groups`).
"""

from __future__ import annotations

from .ir import OpTrace
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
