"""The full-set report: machine envelope, the printed table, ``--compare``.

Needs nothing from ``src/`` — comparing two result files must work on a
machine that cannot run the benchmark.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess

from .metrics import PER_LAYER, REPORTED

#: Calibration kernels further apart than this (between two files, or
#: inside one window) make a comparison unresolved rather than a verdict.
CALIBRATION_TOLERANCE = 0.05

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return None


def envelope() -> dict:
    """Where and when these numbers were taken."""
    return {
        "git_sha": _git_sha(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "numba": _version("numba"),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": "stacked",
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "loadavg": _loadavg(),
    }


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer() \
            and abs(value) < 1e15:
        return f"{value:.0f}"
    return f"{value:.4g}"


def render_table(doc: dict) -> str:
    """Every end-to-end metric of every workload, by name, with units."""
    lines = []
    head = f"{'workload':<16}" + "".join(
        f"{m.name + ' [' + m.unit + ']':>28}" for m in REPORTED)
    lines.append(head)
    for name, runs in doc["workloads"].items():
        values = runs["untraced"]["metrics"]
        row = f"{name:<16}" + "".join(
            f"{_fmt(values[m.name]):>28}" for m in REPORTED)
        if runs["untraced"]["guards"]["noisy"]:
            row += "  noisy"
        lines.append(row)
    return "\n".join(lines)


def render_layers(doc: dict) -> str:
    """The traced breakdown: one row per per-layer metric, one column per
    workload ('-' where a metric does not apply)."""
    names = [w for w, runs in doc["workloads"].items() if "traced" in runs]
    if not names:
        return ""
    lines = [f"{'per-layer metric':<36}{'unit':>8}" + "".join(
        f"{w:>16}" for w in names)]
    for metric in PER_LAYER:
        lines.append(f"{metric.name:<36}{metric.unit:>8}" + "".join(
            f"{_fmt(doc['workloads'][w]['traced']['metrics'][metric.name]):>16}"
            for w in names))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def _calibration_differs(a: dict, b: dict) -> bool:
    before, after = a["calib_ns_before"], b["calib_ns_before"]
    return abs(after - before) / before > CALIBRATION_TOLERANCE


def compare(base: dict, new: dict) -> tuple[list[dict], bool]:
    """One row per workload x end-to-end metric, and per exact per-layer
    count that differs; the flag says whether anything failed.

    ``unresolved`` — not ``unchanged`` — when either run was noisy or the
    two files were taken at different machine speeds: a delta inside the
    bound then proves nothing, and one outside it may be the machine.
    """
    rows: list[dict] = []
    bad = False
    for name, runs in base["workloads"].items():
        other = new["workloads"].get(name)
        if other is None:
            continue
        a, b = runs["untraced"], other["untraced"]
        shaky = (a["guards"]["noisy"] or b["guards"]["noisy"]
                 or _calibration_differs(a["guards"], b["guards"]))
        for metric in REPORTED:
            old, cur = a["metrics"][metric.name], b["metrics"][metric.name]
            row = {"workload": name, "metric": metric.name,
                   "unit": metric.unit, "base": old, "new": cur,
                   "bound": metric.bound, "worsening": None}
            if old is None or cur is None:
                row["verdict"] = "n/a" if old is cur else "differs"
            elif metric.exact:
                row["verdict"] = "identical" if old == cur else "differs"
            else:
                worse = (cur - old) / old if metric.better == "lower" \
                    else (old - cur) / old
                row["worsening"] = worse
                if shaky:
                    row["verdict"] = "unresolved"
                else:
                    row["verdict"] = "regressed" if worse > metric.bound \
                        else "within"
            bad |= row["verdict"] in ("differs", "regressed")
            rows.append(row)
        if "traced" in runs and "traced" in other:
            for metric in PER_LAYER:
                if not metric.exact:
                    continue
                old = runs["traced"]["metrics"][metric.name]
                cur = other["traced"]["metrics"][metric.name]
                if old != cur:
                    bad = True
                    rows.append({"workload": name, "metric": metric.name,
                                 "unit": metric.unit, "base": old,
                                 "new": cur, "bound": 0.0,
                                 "worsening": None, "verdict": "differs"})
    return rows, bad


def render_compare(rows: list[dict]) -> str:
    lines = [f"{'workload':<16}{'metric':<34}{'base':>12}{'new':>12}"
             f"{'worse by':>10}{'bound':>8}  verdict"]
    for row in rows:
        worse = "-" if row["worsening"] is None \
            else f"{row['worsening']:+.1%}"
        bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
        lines.append(
            f"{row['workload']:<16}{row['metric']:<34}"
            f"{_fmt(row['base']):>12}{_fmt(row['new']):>12}"
            f"{worse:>10}{bound:>8}  {row['verdict']}")
    return "\n".join(lines)


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)
