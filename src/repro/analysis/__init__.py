"""Static analysis of HE programs over the trace IR.

``repro.analysis`` lints :class:`~repro.trace.OpTrace` programs before
anything executes: level/depth budgets, scale management, key
availability, unrelinearized products, liveness, noise budgets, result
headroom, and serve slot windows, reported as stable ``HE0xx``/``HE1xx``
diagnostic codes (see
:data:`~repro.analysis.diagnostics.CODES` or the engine README's code
table).  Three front doors:

- ``engine.compile(program, params, lint="warn" | "strict")`` lints the
  trace of every compiled plan;
- ``python -m repro.analysis <workload | file.rpa>`` lints anything in
  the workload catalog or a saved ``.rpa`` trace / plan (``--json`` for
  the machine-readable report, ``--catalog`` for everything at once);
- ``tests/analysis/test_cli.py::TestGoldens`` holds the catalog to a
  zero-error budget against checked-in expected-warning goldens.
"""

from .checks import (check_headroom, check_keys, check_levels,
                     check_liveness, check_relinearization, check_scales,
                     check_structure, check_windows, lint_trace,
                     lint_traces)
from .diagnostics import (CODES, Diagnostic, DiagnosticReport, LintError,
                          LintWarning, Severity)
from .report import analyze_trace, op_mix, render_report

__all__ = [
    "CODES",
    "Diagnostic",
    "DiagnosticReport",
    "LintError",
    "LintWarning",
    "Severity",
    "analyze_trace",
    "check_headroom",
    "check_keys",
    "check_levels",
    "check_liveness",
    "check_relinearization",
    "check_scales",
    "check_structure",
    "check_windows",
    "lint_trace",
    "lint_traces",
    "op_mix",
    "render_report",
]
