"""Table 9, timed: its claims are the ledger's ``Table 9`` rows."""

import pytest

from repro.experiments import table9


@pytest.mark.benchmark(group="table9")
def test_table9_regenerates(benchmark, off):
    benchmark(table9.run)
    assert not off(r"Table 9/.+", 44)


def test_wmac_broadest_applicability(off):
    assert not off(r"Table 9/.+/WMAC", 11)


def test_mod_only_for_modular_workloads(off):
    assert not off(r"Table 9/.+/MOD", 11)
