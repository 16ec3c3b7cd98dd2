"""The harness's own arithmetic and its agreement with ``BENCHMARK.json``.

Collected by tier-1 (``PYTHONPATH=src python -m pytest``); no workload
runs here, so the whole file takes well under five seconds.
"""

from __future__ import annotations

import json
import os
import re
import statistics
from types import SimpleNamespace

import numpy as np
import pytest

from bench import metrics, report, spans, stats
from bench.spans import SpanRecorder
from bench.workloads import CASES, OFFLINE_CASE, SERVE_CASES, make_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


# -- reporting rules ---------------------------------------------------------

@pytest.mark.parametrize("count, p95, p99", [
    (1, False, False),
    (199, False, False),      # 9 samples beyond p95
    (200, True, False),       # 10 beyond p95, 2 beyond p99
    (999, True, False),       # 9 beyond p99
    (1000, True, True),
])
def test_tail_needs_ten_samples_beyond_it(count, p95, p99):
    summary = stats.timing_summary(range(1, count + 1))
    assert summary["n"] == count
    assert summary["p50"] == (count + 1) / 2     # the median, always
    assert (summary["p95"] is not None) == p95
    assert (summary["p99"] is not None) == p99
    if p99:
        assert (summary["p95"], summary["p99"]) == (950, 990)


def test_no_samples_no_median():
    assert stats.timing_summary([]) == {"n": 0, "p50": None, "p95": None,
                                        "p99": None}


def test_a_run_reports_the_quiet_side_of_its_segments():
    rates = [200.0, 204.0, 90.0, 198.0, 202.0, 120.0]   # two slow spells
    assert stats.quiet(rates, "higher") == 200.0        # third best
    assert stats.quiet([3.0, 1.0, 2.0, 9.0], "lower") == 3.0
    assert stats.quiet([5.0, 4.0], "lower") == 5.0      # fewer than three
    with pytest.raises(ValueError):
        stats.quiet([], "lower")
    # Quiet side over median: how much of the window was disturbed.
    assert stats.segment_spread(rates) == pytest.approx(200 / 199)
    assert stats.segment_spread([4.0, 4.0, 4.0, 2.0, 2.0]) == 1.0
    assert stats.segment_spread([3.0, 3.0, 3.0, 1.0, 1.0, 1.0, 1.0]) == 3.0


def _window(replies, clients, stop=0.2):
    """A window fed ``(submitted, done)`` replies in order of arrival."""
    from bench import loadgen
    rig = SimpleNamespace(
        keys=None, server=SimpleNamespace(metrics=SimpleNamespace(
            snapshot=dict, occupancies=[])))
    window = loadgen.Window(tenants=["t"], keep_results=False,
                            stop=stop, due=0.0, round=clients)
    for submitted, done in replies:
        window.add(submitted, done, 0, 0, np.zeros(1))
        loadgen._tick(rig, window, done)
    return window


def test_segments_end_at_replies_and_hold_a_round_of_clients():
    assert stats.SEGMENT_S == 0.05
    # A batch of two replies every 0.02 s from t=0.01, each 0.008 s old.
    replies = [(0.01 + 0.02 * i - 0.008, 0.01 + 0.02 * i)
               for i in range(13) for _ in range(2)]
    window = _window(replies, clients=2)
    walls = [wall for wall, _ in window.ticks]
    assert walls == pytest.approx([0.01, 0.07, 0.13, 0.21])
    assert window.closed and (window.start, window.end) == (walls[0],
                                                            walls[-1])
    segments = window.segments()
    # Whole batch cycles: 3, 3 and (with the short tail taken in) 4.
    assert [ops for ops, *_ in segments] == [6, 6, 8]
    assert [wall for _, wall, *_ in segments] == pytest.approx(
        [0.06, 0.06, 0.08])
    assert [latency for *_, latency in segments] == pytest.approx(
        [0.008] * 3)
    # Replies after the closing one are outside the window.
    assert len(window.completed()) == 20
    # Eight clients: a segment waits for eight replies, however long.
    window = _window(replies, clients=8)
    assert [wall for wall, _ in window.ticks] == pytest.approx(
        [0.01, 0.09, 0.21])
    assert [ops for ops, *_ in window.segments()] == [8, 12]


# -- span trees --------------------------------------------------------------

def _tree():
    """run[0,10] > a[1,4] > b[2,3];  run > a[5,9];  and a lone c[20,21]."""
    return [["run", 0.0, 10.0, -1, 0],
            ["a", 1.0, 4.0, 0, 3],
            ["b", 2.0, 3.0, 1, 0],
            ["a", 5.0, 9.0, 0, 4],
            ["c", 20.0, 21.0, -1, 0]]


def test_self_time_is_duration_minus_children():
    tree = _tree()
    assert spans.root_indices(tree) == [0, 0, 0, 0, 4]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_self_times_add_up_to_the_counted_roots():
    unfinished = ["run", 30.0, 0.0, -1, 0]      # still open at write-out
    summary = spans.summarize([_tree() + [unfinished],
                               [["run", 2.0, 6.0, -1, 0],
                                ["a", 2.5, 3.5, 0, 1]]],
                              "run", 0.0, 25.0)
    assert summary.roots == [(0.0, 10.0), (2.0, 6.0)]
    assert summary.root_seconds == summary.self_seconds == 14.0
    assert "c" not in summary.by_name           # not under a ``run``
    a = summary.by_name["a"]
    assert (a.calls, a.total_s, a.self_s, a.value) == (3, 8.0, 7.0, 8)
    assert summary.per_root("a", "calls") == 1.5
    assert summary.per_root("run") == 3.0       # (3 + 3) unattributed / 2
    assert summary.per_root("never_seen") == 0.0
    # A root that crosses the window's edge is left out with its subtree.
    assert spans.summarize([_tree()], "run", 0.5, 25.0).roots == []


def test_recorder_nests_per_thread():
    recorder = SpanRecorder()
    with recorder.span("run"):
        recorder.wrap(lambda: recorder.begin("inner", 7) or recorder.end(),
                      "outer")()
    (thread,) = recorder.threads
    assert [s[spans.NAME] for s in thread] == ["run", "outer", "inner"]
    assert [s[spans.PARENT] for s in thread] == [-1, 0, 1]
    assert thread[2][spans.VALUE] == 7
    assert all(s[spans.START] <= s[spans.END] for s in thread)
    own = spans.self_times(thread)
    assert sum(own) == pytest.approx(thread[0][spans.END]
                                     - thread[0][spans.START])


def test_concurrency_mean():
    assert spans.concurrency_mean([(0, 1), (2, 3)]) == 1.0
    assert spans.concurrency_mean([(0, 2), (0, 2)]) == 2.0
    assert spans.concurrency_mean([(0, 2), (1, 3)]) == pytest.approx(4 / 3)
    assert spans.concurrency_mean([]) == 0.0


# -- generated inputs --------------------------------------------------------

@pytest.mark.parametrize("case", SERVE_CASES, ids=lambda c: c.name)
def test_same_seed_same_inputs(case):
    one, again, other = (make_inputs(case, seed) for seed in (7, 7, 8))
    for field in ("pool", "picks", "tenant_order", "identity_sample"):
        assert np.array_equal(getattr(one, field), getattr(again, field))
    assert not np.array_equal(one.pool, other.pool)
    assert one.picks.shape[0] == case.clients()
    if case.churn_tenants:
        # Every visit is a key-cache miss from the first batch on: the
        # tenants set-up left out come first, whatever the seed.
        resident = len(case.resident_tenants())
        ahead = case.churn_tenants - resident
        assert sorted(one.tenant_order) == list(range(case.churn_tenants))
        assert all(t >= resident for t in one.tenant_order[:ahead])


# -- BENCHMARK.json <-> code -------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _as_spec(metric, bounded):
    entry = {"name": metric.name, "unit": metric.unit,
             "better": metric.better}
    if bounded:
        entry["bound"] = metric.bound
    return entry


def test_benchmark_json_mirrors_the_code():
    assert SPEC["workloads"] == [{"name": case.name, "why": case.why}
                                 for case in CASES.values()]
    assert SPEC["end_to_end"] == [_as_spec(m, True) for m in metrics.GATED]
    assert SPEC["per_layer"] == [_as_spec(m, False)
                                 for m in metrics.PER_LAYER]
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "-m", "bench"]


def test_names_units_and_bounds_are_within_the_contract():
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    bounds = {e["name"]: e["bound"] for e in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60


def test_metric_groups():
    assert len(metrics.PER_LAYER) == 82     # the issue's 81 + sim error
    assert {m.name for m in metrics.REPORTED} - {
        m.name for m in metrics.GATED} == {"failed_share",
                                           "sim_error_vs_paper"}
    assert metrics.REAL_LANES == tuple(c.name for c in SERVE_CASES
                                       if c.real)
    assert CASES[OFFLINE_CASE.name] is OFFLINE_CASE


# -- --compare ---------------------------------------------------------------

def _result(throughput=100.0, noisy=False, calib=4.0, failed_share=0.0,
            rotations=4):
    values = {m.name: 1.0 for m in metrics.REPORTED}
    values.update(throughput_ops_s=throughput, failed_share=failed_share,
                  sim_error_vs_paper=None)
    layers = {m.name: 1 for m in metrics.PER_LAYER}
    layers["evaluator.he_rotate.calls"] = rotations
    guard = {"noisy": noisy, "calib_ns_before": calib,
             "calib_ns_after": calib}
    return {"workloads": {"w": {
        "untraced": {"metrics": values, "guards": guard},
        "traced": {"metrics": layers, "guards": guard}}}}


def _verdicts(base, new):
    rows, bad = report.compare(base, new)
    return {row["metric"]: row["verdict"] for row in rows}, bad


#: Throughputs just inside and well outside the bound, from a base of 100.
BOUND = metrics.GATED[0].bound
INSIDE, OUTSIDE = 100.0 * (1 - BOUND / 2), 100.0 * (1 - BOUND * 2)


def test_compare_judges_against_the_bound():
    verdicts, bad = _verdicts(_result(), _result(throughput=INSIDE))
    assert verdicts["throughput_ops_s"] == "within" and not bad
    assert verdicts["sim_error_vs_paper"] == "n/a"
    assert verdicts["failed_share"] == "identical"
    assert len(verdicts) == len(metrics.REPORTED)
    verdicts, bad = _verdicts(_result(), _result(throughput=OUTSIDE))
    assert verdicts["throughput_ops_s"] == "regressed" and bad
    # Higher is better for throughput: a gain is never a regression.
    verdicts, bad = _verdicts(_result(), _result(throughput=150.0))
    assert verdicts["throughput_ops_s"] == "within" and not bad


@pytest.mark.parametrize("shaky", [{"noisy": True}, {"calib": 4.3}])
def test_compare_is_unresolved_not_unchanged_on_a_shaky_run(shaky):
    verdicts, bad = _verdicts(_result(), _result(throughput=OUTSIDE,
                                                 **shaky))
    assert verdicts["throughput_ops_s"] == "unresolved" and not bad
    verdicts, _ = _verdicts(_result(), _result(**shaky))
    assert verdicts["latency_p50_s"] == "unresolved"


def test_compare_holds_exact_metrics_to_equality():
    verdicts, bad = _verdicts(_result(), _result(failed_share=0.001))
    assert verdicts["failed_share"] == "differs" and bad
    verdicts, bad = _verdicts(_result(), _result(rotations=5, noisy=True))
    assert verdicts["evaluator.he_rotate.calls"] == "differs" and bad
    assert "differs" in report.render_compare(
        report.compare(_result(), _result(rotations=5))[0])
