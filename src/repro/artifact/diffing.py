"""Per-block structural diffing of ``.rpa`` artifacts.

This is the cheap CI regression gate: instead of re-simulating a
workload to notice that tracing changed, two artifacts are compared
block by block — header counts and parameter fingerprints, and op
streams (per-kind / per-level count deltas plus an exact structural
hash).  A delta anywhere is a structural change and
exits 1; byte-level differences that decode to identical structures
(e.g. a different compression level) are *not* deltas.  The block graph
is a function of the op stream, so there is no graph section: lowering
itself is pinned by ``tests/trace/test_op_table_pins.py``.

Sections one side cannot have are compared only when both sides carry
them, except that two ``plan`` artifacts must agree on which blocks they
carry.
``python -m repro.artifact diff`` is the command-line front door.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.trace.ir import OpTrace
from repro.trace.ops import schedule

from .reader import Artifact
from .writer import build_header, plan_provenance, real_payloads

if TYPE_CHECKING:
    from repro.engine.plan import ExecutablePlan


@dataclass
class BlockDiff:
    """Deltas of one logical block: ``{row: (a_value, b_value)}``."""

    block: str
    rows: dict[str, tuple[Any, Any]] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.rows)


@dataclass
class ArtifactDiff:
    """All per-block deltas between two artifacts."""

    a: Artifact
    b: Artifact
    blocks: list[BlockDiff] = field(default_factory=list)

    def __bool__(self) -> bool:
        return any(self.blocks)

    def deltas(self) -> list[BlockDiff]:
        return [block for block in self.blocks if block]


def artifact_view(plan: "ExecutablePlan") -> Artifact:
    """An in-memory :class:`Artifact` over a compiled plan.

    Structurally equivalent to saving and re-reading the plan (the
    round trip is exact), minus the disk I/O — what the golden-corpus
    checker diffs freshly compiled plans through.
    """
    payloads = real_payloads(plan.trace)
    header = build_header(plan.trace, kind="plan",
                          num_payloads=len(payloads))
    return Artifact(header=header, trace=plan.trace,
                    provenance=plan_provenance(plan), payloads=payloads)


# ---------------------------------------------------------------------------
# per-block comparisons
# ---------------------------------------------------------------------------

def _trace_structural_hash(trace: OpTrace) -> str:
    digest = hashlib.sha256()
    for op in trace.ops:
        row = (op.op_id, op.kind.value, list(op.inputs), op.level,
               op.out_level, op.out_scale, op.key, op.region,
               {k: str(v) for k, v in sorted(op.meta.items())})
        digest.update(json.dumps(row, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


def _diff_header(a: Artifact, b: Artifact) -> BlockDiff:
    block = BlockDiff("HEADER")
    for key in ("schema_version", "params_fingerprint"):
        if a.header.get(key) != b.header.get(key):
            block.rows[key] = (a.header.get(key), b.header.get(key))
    counts_a = dict(a.header.get("counts", {}))
    counts_b = dict(b.header.get("counts", {}))
    for key in sorted(set(counts_a) | set(counts_b)):
        if counts_a.get(key) != counts_b.get(key):
            block.rows[f"counts.{key}"] = (counts_a.get(key),
                                           counts_b.get(key))
    return block


def _count_rows(block: BlockDiff, label: str, a: Counter[Any],
                b: Counter[Any]) -> None:
    """One ``label[key]`` row per key whose multiplicity differs."""
    for key in sorted(set(a) | set(b), key=str):
        if a[key] != b[key]:
            block.rows[f"{label}[{key}]"] = (a[key], b[key])


def _diff_trace(a: OpTrace, b: OpTrace) -> BlockDiff:
    block = BlockDiff("TRACE_OPS")
    _count_rows(block, "kind", Counter(op.kind.value for op in a.ops),
                Counter(op.kind.value for op in b.ops))
    _count_rows(block, "level", Counter(op.level for op in a.ops),
                Counter(op.level for op in b.ops))
    keys_a, keys_b = (set(schedule(trace).key_ids) for trace in (a, b))
    if keys_a != keys_b:
        block.rows["keys_used"] = (len(keys_a), len(keys_b))
    if a.output_op_id != b.output_op_id:
        block.rows["output_op_id"] = (a.output_op_id, b.output_op_id)
    hash_a, hash_b = (_trace_structural_hash(a),
                      _trace_structural_hash(b))
    if hash_a != hash_b:
        block.rows["op_stream"] = (hash_a, hash_b)
    return block


def diff_artifacts(a: Artifact, b: Artifact) -> ArtifactDiff:
    """Per-block structural diff; sections both sides carry compared,
    plus block-presence itself when both sides are plan artifacts."""
    diff = ArtifactDiff(a=a, b=b)
    diff.blocks.append(_diff_header(a, b))
    if a.kind == b.kind == "plan":
        presence = BlockDiff("BLOCKS")
        have_a = {name for name, present in
                  (("TRACE_OPS", a.trace is not None),
                   ("PAYLOADS", bool(a.payloads))) if present}
        have_b = {name for name, present in
                  (("TRACE_OPS", b.trace is not None),
                   ("PAYLOADS", bool(b.payloads))) if present}
        if have_a != have_b:
            presence.rows["present"] = (sorted(have_a), sorted(have_b))
        diff.blocks.append(presence)
    if a.trace is not None and b.trace is not None:
        diff.blocks.append(_diff_trace(a.trace, b.trace))
    return diff


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_diff(diff: ArtifactDiff) -> str:
    """Human-readable per-block report (deltas only)."""
    lines = [_describe("a", diff.a), _describe("b", diff.b)]
    deltas = diff.deltas()
    if not deltas:
        lines.append("no structural deltas")
        return "\n".join(lines)
    for block in deltas:
        lines.append(f"{block.block} deltas:")
        width = max(len(row) for row in block.rows)
        for row, (value_a, value_b) in block.rows.items():
            lines.append(f"  {row:{width}s}  {value_a!r} -> {value_b!r}")
    return "\n".join(lines)


def _describe(label: str, artifact: Artifact) -> str:
    ops = len(artifact.trace.ops) if artifact.trace is not None else 0
    origin = artifact.path or "<in-memory>"
    return (f"{label}: {origin} ({artifact.name or '?'}, "
            f"{artifact.kind or 'trace'}, {ops} ops)")


def diff_json(diff: ArtifactDiff) -> dict[str, Any]:
    """JSON-clean rendering of the per-block deltas."""
    return {
        "a": {"path": diff.a.path, "name": diff.a.name,
              "fingerprint": diff.a.fingerprint},
        "b": {"path": diff.b.path, "name": diff.b.name,
              "fingerprint": diff.b.fingerprint},
        "deltas": {block.block: {row: list(pair)
                                 for row, pair in block.rows.items()}
                   for block in diff.deltas()},
    }
