"""Shared fixtures for the benchmark harness."""

import pathlib
import re

import pytest

from repro.experiments.claims import ledger

_BENCH_DIR = pathlib.Path(__file__).parent.resolve()


def pytest_collection_modifyitems(items):
    """Every test under benchmarks/ carries the ``bench`` marker, so the
    CI fast lane can deselect them and the benchmark-smoke lane can select
    exactly this set (`-m bench`).

    Non-root conftest hooks receive the *whole session's* item list, so
    filter by path: only items that live under this directory get marked.
    """
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.path)).resolve().parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def off():
    """``off(pattern, count)``: ids of the claims-ledger rows matching
    ``pattern`` that are outside their band.  Bands and paper values live
    in ``repro.experiments.claims``; the pattern must match exactly
    ``count`` rows, so a renamed or dropped row fails the lookup."""
    rows = ledger()

    def outside(pattern: str, count: int) -> list[str]:
        matched = [c for c in rows if re.fullmatch(pattern, c.id)]
        assert len(matched) == count, \
            f"{pattern!r} matches {[c.id for c in matched]}, not {count} rows"
        return [c.id for c in matched if not c.holds]
    return outside
