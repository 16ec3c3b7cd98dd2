"""Table 7, timed: its claims are the ledger's ``Table 7`` rows."""

import pytest

from repro.experiments import table7


@pytest.mark.benchmark(group="table7")
def test_table7_regenerates(benchmark):
    benchmark(table7.run)


def test_block_latencies_within_band(off):
    assert not off(r"Table 7/\w+/(baseline|gme)", 10)


def test_speedups_in_paper_band(off):
    assert not off(r"Table 7/\w+/speedup_vs_baseline", 5)


def test_mult_and_rotate_most_expensive(off):
    assert not off(r"Table 7/two slowest/\w+", 2)


def test_average_speedup_vs_100x(off):
    assert not off("Table 7/mean/speedup_vs_100x", 1)


def test_beats_tfhe_on_every_block(off):
    assert not off(r"Table 7/\w+/speedup_vs_tfhe", 5)
