"""Table 8, timed: its claims are the ledger's ``Table 8`` rows."""

import pytest

from repro.experiments import table8


@pytest.mark.benchmark(group="table8")
def test_table8_regenerates(benchmark):
    benchmark.pedantic(table8.run, rounds=1, iterations=1)


def test_workload_times_within_band(off):
    assert not off(r"Table 8/[\w ]+/\w+", 8)


def test_headline_speedups(off):
    assert not off(r"Table 8 speedups/GME vs .+", 8)


def test_amortized_mult_time(off):
    assert not off(r"Table 8/[\w ]+/tas_ns( by Eq\. 1)?", 4)


def test_asics_still_faster(off):
    assert not off(r"Table 8 speedups/(BTS|CL|ARK) vs GME/\w+", 5)
