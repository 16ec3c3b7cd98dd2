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
    "boot": "54504915212d404a03e7265ae37b97fb79dce53c33a63d5029f1196f644f013e",
    "helr": "bc2e8e915f915c86b5ee3a856ea5a7965c38db94a8ecece2704e0881d74e2a31",
    "resnet": "bb9a281765d09c662572ddf00ad971ee7433079c374da3b04d4cd002691b6e65",
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
