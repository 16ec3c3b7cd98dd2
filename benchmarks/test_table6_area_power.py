"""Table 6, timed: its claims are the ledger's ``Table 6`` rows."""

import pytest

from repro.experiments import table6


@pytest.mark.benchmark(group="table6")
def test_table6_regenerates(benchmark, off):
    benchmark(table6.run)
    assert not off(r"Table 6/(cNoC|MOD|WMAC)/(area_mm2|power_w|fmax_ghz)", 9)


def test_fmax_above_mi100_clock(off):
    assert not off(r"Table 6/\w+/fmax_ghz over the MI100 clock", 3)


def test_extension_overhead_is_fraction_of_gpu(off):
    assert not off(r"Table 6/total/\w+", 2)
