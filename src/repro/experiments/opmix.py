"""Op-mix + static-diagnostics table for every catalog workload.

Each workload's op counts, key switches, level span and hoists, from the
same analysis pass that lints the catalog (:mod:`repro.analysis`).
"""

from __future__ import annotations

from typing import Any

from repro.analysis import analyze_trace
from repro.fhe.params import CkksParameters
from repro.workloads.registry import compile_workload, workload_names


def run(params_name: str = "paper") -> dict[str, Any]:
    """{workload: {op_mix: ..., diagnostics: {code: count}}}."""
    params = getattr(CkksParameters, params_name)()
    table: dict[str, Any] = {}
    for name in workload_names():
        plan = compile_workload(name, params)
        report = analyze_trace(plan.trace, name=name)
        table[name] = {"op_mix": report.op_mix,
                       "diagnostics": report.codes(),
                       "errors": len(report.errors)}
    return table
