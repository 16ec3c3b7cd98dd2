"""Report assembly: op-mix tables and human/JSON rendering.

The per-workload lint report doubles as the op-mix table the ROADMAP
asks for (item 5): besides the diagnostics, it records how many of each
evaluator op the workload runs, how many stream switching keys, the
level span, and the hoist structure — the numbers a microcoded
accelerator (Medha) or an architecture study (GME Table 4) needs per
workload.
"""

from __future__ import annotations

from typing import Any

from repro.trace.ir import OpKind, OpTrace
from repro.trace.ops import OPS

from .checks import lint_trace
from .diagnostics import DiagnosticReport


def op_mix(trace: OpTrace) -> dict[str, Any]:
    """Per-workload op-mix summary of one trace."""
    by_kind = trace.counts_by_kind()
    counts = {kind.value: count
              for kind, count in sorted(by_kind.items(),
                                        key=lambda kv: kv[0].value)}
    keyswitches = len(trace.keyswitch_ops())
    block_ops = sum(1 for op in trace.ops
                    if OPS[op.kind].block is not None)
    levels = [op.level for op in trace.ops]
    return {
        "ops": len(trace.ops),
        "block_ops": block_ops,
        "keyswitch_ops": keyswitches,
        "counts_by_kind": counts,
        "distinct_keys": sorted(trace.keys_used()),
        "level_min": min(levels) if levels else None,
        "level_max": max(levels) if levels else None,
        "hoists": by_kind[OpKind.HOIST] + by_kind[OpKind.ROTATE_ADD],
    }


def analyze_trace(trace: OpTrace, **kwargs: Any) -> DiagnosticReport:
    """Lint a trace and attach its op-mix table to the report."""
    report = lint_trace(trace, **kwargs)
    report.op_mix = op_mix(trace)
    return report


def render_op_mix(mix: dict[str, Any]) -> str:
    """Human op-mix block (aligned ``kind  count`` table)."""
    lines = [
        f"  ops: {mix['ops']} total, {mix['block_ops']} block-level, "
        f"{mix['keyswitch_ops']} key switches",
        f"  levels: {mix['level_min']}..{mix['level_max']}, "
        f"hoisted stages: {mix['hoists']}, "
        f"distinct keys: {len(mix['distinct_keys'])}",
    ]
    counts = mix["counts_by_kind"]
    if counts:
        width = max(len(kind) for kind in counts)
        for kind, count in counts.items():
            lines.append(f"    {kind:<{width}}  {count}")
    return "\n".join(lines)


def render_report(report: DiagnosticReport,
                  show_op_mix: bool = False) -> str:
    """Human rendering of one report (diagnostics + optional op mix)."""
    text = report.render()
    if show_op_mix and report.op_mix:
        text += "\n" + render_op_mix(report.op_mix)
    return text
