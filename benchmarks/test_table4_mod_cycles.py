"""Table 4, timed: its claims are the ledger's ``Table 4`` rows."""

import pytest

from repro.experiments import table4


@pytest.mark.benchmark(group="table4")
def test_table4_regenerates(benchmark, off):
    benchmark.pedantic(table4.run, kwargs={"count": 2000},
                       rounds=1, iterations=1)
    assert not off(r"Table 4/[\w+]+/mod_(red|add|mul)", 9)


def test_table4_mod_red_43pct_reduction(off):
    assert not off("Table 4/mod/mod_red cut", 1)


def test_table4_ordering(off):
    assert not off(r"Table 4/mod_\w+ order", 3)
