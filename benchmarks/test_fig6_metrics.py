"""Figure 6, timed: its claims are the ledger's ``Fig. 6`` rows."""

import pytest

from repro.experiments import fig6


@pytest.mark.benchmark(group="fig6")
def test_fig6_regenerates(benchmark):
    benchmark.pedantic(fig6.run, rounds=1, iterations=1)


def test_cnoc_raises_cu_utilization(off):
    assert not off(r"Fig\. 6/\w+/cu_utilization cNoC vs Baseline", 3)


def test_dram_traffic_drops_sharply(off):
    assert not off(r"Fig\. 6/\w+/dram_traffic_gb .+", 6)


def test_cpt_decreases(off):
    assert not off(r"Fig\. 6/\w+/avg_cpt cNoC vs Baseline", 3)


def test_resnet_cpt_below_helr(off):
    assert not off(r"Fig\. 6/resnet vs helr/avg_cpt at \w+", 2)


def test_l1_utilization_drops_with_cnoc(off):
    assert not off(r"Fig\. 6/\w+/l1_utilization .+", 3)


def test_cpi_rises_with_complex_instructions(off):
    assert not off(r"Fig\. 6/\w+/cpi .+", 3)
