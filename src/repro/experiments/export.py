"""Shared machine-readable export schema for the ``--json`` CLIs.

The ``--json`` documents of the experiment runner, ``python -m
repro.analysis`` and ``python -m repro.artifact`` share one stable
envelope so downstream tooling can parse any of them without
per-document special cases:

* ``schema_version`` (int) — bumped only on breaking key changes;
  additive keys do not bump it;
* ``kind`` (str) — which document this is (``"experiments.runner"``,
  ``"analysis.lint"``, ``"artifact.diff"``, ...);
* ``python`` / ``machine`` (str) — interpreter version and platform
  machine tag, for segmenting measurements across machines;
* one document-specific payload key (``"harnesses"`` for the runner,
  ``"diff"`` for an artifact diff, ...) plus any document-specific
  scalar context (``"source"``, ``"params"``, ...).

The envelope keys are reserved: payloads must not reuse them.
"""

from __future__ import annotations

import json
import platform
import sys

#: Bump only on breaking changes to the envelope or a payload's keys.
SCHEMA_VERSION = 1

#: Keys every export carries; payload keys must not collide with them.
ENVELOPE_KEYS = ("schema_version", "kind", "python", "machine")


def envelope(kind: str, /, **payload) -> dict:
    """A schema-versioned export document: envelope + payload keys."""
    for key in payload:
        if key in ENVELOPE_KEYS:
            raise ValueError(f"payload key {key!r} is reserved by the "
                             "export envelope")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    doc.update(payload)
    return doc


def write_json(doc: dict, out: str) -> None:
    """Write ``doc`` to ``out`` (``"-"`` for stdout), indent=2."""
    if out == "-":
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    with open(out, "w") as f:
        json.dump(doc, f, indent=2)
