"""Byte pins of the golden corpus.

``test_corpus.py`` checks the goldens structurally (a per-block diff that
ignores byte-level changes by design) and that a regen rewrites the
checked-in bytes.  Both sides of that comparison move together on a
``--regen``; these digests (family ``corpus`` of ``tests/pins.json``) do
not.  A fresh compile + save of each catalog workload at paper
parameters must produce exactly the bytes recorded there, and so must
the checked-in golden.

Re-pin only deliberately, after an intentional format or workload
change: ``PYTHONPATH=src python -m tests.pins --record``.
"""

import hashlib

import pytest

import pins
from repro import engine
from repro.artifact import corpus_path
from repro.fhe.params import CkksParameters

CATALOG = ("boot", "helr", "resnet")


@pins.family("corpus", [(name, "paper") for name in CATALOG])
def corpus_digest(name: str, preset: str) -> str:
    """The checked-in golden's sha256."""
    return hashlib.sha256(corpus_path(name).read_bytes()).hexdigest()


def test_the_pins_cover_the_catalog():
    assert sorted(CATALOG) == sorted(engine.workload_names())


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_a_fresh_save_is_the_pinned_golden(tmp_path, name):
    path = tmp_path / f"{name}.rpa"
    engine.compile(name, CkksParameters.paper()).save(str(path))
    fresh = path.read_bytes()
    assert hashlib.sha256(fresh).hexdigest() \
        == pins.expected("corpus", name, "paper")
    assert corpus_digest(name, "paper") == pins.expected("corpus", name,
                                                         "paper")
