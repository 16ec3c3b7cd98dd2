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
    "boot": "613c0c72cd4c83e353f24888ab55620da4927ca6a53618ad3d6abeaf5f94a8f5",
    "helr": "5944aac063494e0a187c3159e041f2fe0f593a2b2cfd52542a437c0168deb8fd",
    "resnet": "14735b70f2b056171461fb11db9cc70f6bb86d1dc876a9f96da9d8dfeb7e20bc",
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
