"""Figure 8, timed: its claims are the ledger's ``Fig. 8`` rows."""

import pytest

from repro.experiments import fig8


@pytest.mark.benchmark(group="fig8")
def test_fig8_regenerates(benchmark):
    benchmark.pedantic(fig8.run, rounds=1, iterations=1)


def test_15p5_mb_speedup_band(off):
    assert not off(r"Fig\. 8/\w+/15\.5 MB", 3)


def test_sweep_monotone_then_plateaus(off):
    assert not off(r"Fig\. 8/\w+/(smallest step|last gain over first)", 6)


def test_baseline_lds_point_is_unity():
    for sweep in fig8.run().values():
        assert sweep[0] == (7.5, 1.0)
