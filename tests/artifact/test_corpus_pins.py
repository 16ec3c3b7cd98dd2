"""Byte pins of the golden corpus.

``test_corpus.py`` checks the goldens structurally (a per-block diff that
ignores byte-level changes by design) and that a regen rewrites the
checked-in bytes.  Both sides of that comparison move together on a
``--regen``; these digests do not.  A fresh compile + save of each
catalog workload at paper parameters must produce exactly the bytes
recorded here, and so must the checked-in golden.

Re-pin only deliberately, after an intentional format or workload
change: ``PYTHONPATH=src python tests/artifact/test_corpus_pins.py``
prints the table.
"""

import hashlib

import pytest

from repro import engine
from repro.artifact import corpus_path
from repro.fhe.params import CkksParameters

CORPUS_SHA256 = {
    "boot": "a49cd1d423afb05394108f82a80923a13c6aacf7121258f14bf0fc2a20e948d4",
    "helr": "20b52b4989938dbb076aa701bfb482ef9c0681b4169e5f7ba9719920f6f85b54",
    "resnet": "65f5c9acf3da99ff7e4ac923f4dab038be766676adedfe5ea55b246e8051d2f1",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_the_pins_cover_the_catalog():
    assert sorted(CORPUS_SHA256) == sorted(engine.workload_names())


@pytest.mark.parametrize("name", sorted(CORPUS_SHA256))
def test_a_fresh_save_is_the_pinned_golden(tmp_path, name):
    path = tmp_path / f"{name}.rpa"
    engine.compile(name, CkksParameters.paper()).save(str(path))
    fresh = path.read_bytes()
    assert _sha256(fresh) == CORPUS_SHA256[name]
    assert fresh == corpus_path(name).read_bytes()


if __name__ == "__main__":
    for workload in engine.workload_names():
        digest = _sha256(corpus_path(workload).read_bytes())
        print(f'    "{workload}": "{digest}",')
