"""CLI: lint a catalog workload or a saved ``.rpa`` trace / plan.

Usage::

    python -m repro.analysis boot --params paper
    python -m repro.analysis path/to/plan.rpa --json report.json
    python -m repro.analysis --catalog --params paper \
        --golden tests/analysis/catalog_warnings.json

Exit codes: 0 clean (warnings/hints allowed unless a golden disagrees),
1 any error-severity finding or golden mismatch, 2 usage/load failure.
The ``--json`` report uses the shared ``schema_version`` export
envelope (:mod:`repro.experiments.export`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from typing import Any

from repro.fhe.params import CkksParameters

from .diagnostics import DiagnosticReport
from .report import analyze_trace, render_report

PRESETS = ("toy", "test", "boot_test", "paper")


def _params(preset: str) -> CkksParameters:
    factory: Callable[[], CkksParameters] = getattr(CkksParameters, preset)
    return factory()


def _lint_target(target: str, params: CkksParameters,
                 preset: str) -> DiagnosticReport:
    """Lint one catalog workload name or one ``.rpa`` trace / plan."""
    from repro.workloads.registry import compile_workload, workload_names
    if target in workload_names():
        plan = compile_workload(target, params)
        return analyze_trace(plan.trace, normalized=True,
                             name=f"{target}@{preset}")
    if not os.path.exists(target):
        raise FileNotFoundError(
            f"{target!r} is neither a catalog workload "
            f"({', '.join(workload_names())}) nor an existing .rpa file")
    from repro.artifact import load_trace
    trace = load_trace(target)
    return analyze_trace(trace, name=trace.name or target)


def _lint_catalog(params: CkksParameters,
                  preset: str) -> list[DiagnosticReport]:
    from repro.workloads.registry import compile_workload, workload_names
    return [analyze_trace(compile_workload(name, params).trace,
                          normalized=True, name=f"{name}@{preset}")
            for name in workload_names()]


def _golden_payload(reports: list[DiagnosticReport]) -> dict[str, Any]:
    """What the expected-warning golden pins: per-workload code counts."""
    return {report.name: report.codes() for report in reports}


def _check_golden(reports: list[DiagnosticReport],
                  golden_path: str) -> list[str]:
    with open(golden_path, encoding="utf-8") as fh:
        expected = json.load(fh)["workloads"]
    actual = _golden_payload(reports)
    mismatches: list[str] = []
    for name in sorted(set(expected) | set(actual)):
        if expected.get(name) != actual.get(name):
            mismatches.append(
                f"{name}: expected codes {expected.get(name)}, "
                f"got {actual.get(name)}")
    return mismatches


def _write_json(reports: list[DiagnosticReport], out: str,
                preset: str) -> None:
    from repro.experiments.export import envelope, write_json
    doc = envelope("analysis.lint", params=preset,
                   reports=[r.to_json() for r in reports],
                   errors=sum(len(r.errors) for r in reports))
    if out == "-":
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        write_json(doc, out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static lint of HE programs (workloads or traces).")
    parser.add_argument("target", nargs="?",
                        help="catalog workload name or .rpa artifact path")
    parser.add_argument("--catalog", action="store_true",
                        help="lint every workload in the catalog")
    parser.add_argument("--params", default="paper", choices=PRESETS,
                        help="parameter preset for catalog workloads")
    parser.add_argument("--json", metavar="OUT", dest="json_out",
                        help="write the JSON report to OUT ('-' = stdout)")
    parser.add_argument("--op-mix", action="store_true",
                        help="include the per-workload op-mix table")
    parser.add_argument("--golden", metavar="FILE",
                        help="compare per-workload diagnostic-code counts "
                        "against a checked-in golden")
    parser.add_argument("--update-golden", metavar="FILE",
                        help="rewrite the golden from this run and exit")
    args = parser.parse_args(argv)

    if bool(args.target) == args.catalog:
        parser.error("pass exactly one of <target> or --catalog")
    params = _params(args.params)

    try:
        if args.catalog:
            reports = _lint_catalog(params, args.params)
        else:
            reports = [_lint_target(args.target, params, args.params)]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.update_golden:
        doc = {"params": args.params,
               "workloads": _golden_payload(reports)}
        with open(args.update_golden, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"golden written to {args.update_golden}")
        return 0

    if args.json_out:
        _write_json(reports, args.json_out, args.params)
    if args.json_out != "-":
        for report in reports:
            print(render_report(report, show_op_mix=args.op_mix))

    status = 0
    if any(report.has_errors for report in reports):
        status = 1
    if args.golden:
        mismatches = _check_golden(reports, args.golden)
        for line in mismatches:
            print(f"golden mismatch: {line}", file=sys.stderr)
        if mismatches:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
