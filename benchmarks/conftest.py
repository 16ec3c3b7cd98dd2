"""Shared fixtures for the benchmark harness."""

import pathlib

import pytest

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
