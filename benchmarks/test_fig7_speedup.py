"""Figure 7, timed: its claims are the ledger's ``Fig. 7`` rows."""

import pytest

from repro.experiments import fig7


@pytest.mark.benchmark(group="fig7")
def test_fig7_regenerates(benchmark):
    benchmark.pedantic(fig7.run, rounds=1, iterations=1)


def test_ladder_is_monotone(off):
    assert not off(r"Fig\. 7/\w+/smallest step", 3)
    for ladder in fig7.run().values():
        assert ladder[0] == ("Baseline", 1.0)


def test_labs_adds_speedup(off):
    assert not off(r"Fig\. 7/\w+/LABS step", 3)


def test_2xlds_adds_speedup(off):
    assert not off(r"Fig\. 7/\w+/2xLDS step", 3)
