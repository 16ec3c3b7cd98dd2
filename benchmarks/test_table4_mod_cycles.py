"""Table 4, timed.  Its claims are the ledger's ``Table 4`` rows, asserted
by ``tests/test_claims.py``."""

import pytest

from repro.experiments import table4


@pytest.mark.benchmark(group="table4")
def test_table4_regenerates(benchmark):
    benchmark.pedantic(table4.run, kwargs={"count": 2000},
                       rounds=1, iterations=1)
