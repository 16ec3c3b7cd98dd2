"""Build and atomically write ``.rpa`` artifacts.

Two writers share one block pipeline:

* :func:`save_trace` — HEADER + TRACE_OPS (+ PAYLOADS) — the one way an
  :class:`~repro.trace.OpTrace` is written to disk;
* :func:`save_plan` — HEADER + TRACE_OPS + PROVENANCE (+ PAYLOADS) —
  everything :func:`repro.artifact.reader.load_plan` needs to rebuild
  an :class:`~repro.engine.ExecutablePlan` that simulates, profiles,
  and (with payloads) executes identically to the freshly compiled one.
  The stored trace is the post-pass one, so the block graph is not
  stored: loading lowers it again.

Writes are atomic (temp file in the destination directory +
``os.replace``): a crash mid-export never leaves a truncated container
for the CI diff lane to misread.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from typing import TYPE_CHECKING, Any

from repro.fhe.encoder import Plaintext
from repro.trace.ir import OpTrace

from .columnar import encode_payloads, encode_trace_ops
from .format import (CONTAINER_VERSION, TRACE_FORMAT_VERSION,
                     ArtifactBlockType, content_fingerprint, pack_json,
                     params_fingerprint, write_container)

if TYPE_CHECKING:
    from repro.engine.plan import ExecutablePlan


def build_header(trace: OpTrace, *, kind: str,
                 num_payloads: int = 0) -> dict[str, Any]:
    """The HEADER block document for one trace."""
    counts = {"ops": len(trace.ops), "payloads": num_payloads}
    return {
        "format": "rpa",
        "kind": kind,
        "container_version": CONTAINER_VERSION,
        "schema_version": TRACE_FORMAT_VERSION,
        "name": trace.name,
        "output_op_id": trace.output_op_id,
        "params": dataclasses.asdict(trace.params),
        "params_fingerprint": params_fingerprint(trace.params),
        "fingerprint": content_fingerprint(trace.name, trace.params,
                                           counts),
        "counts": counts,
    }


def real_payloads(trace: OpTrace) -> dict[int, Plaintext]:
    """The payloads a PAYLOADS block carries: the real plaintexts
    (symbolic traces hold shape-only handles, which stay in memory)."""
    return {op_id: p for op_id, p in trace.payloads.items()
            if isinstance(p, Plaintext)}


def _payload_block(trace: OpTrace,
                   include_payloads: bool) -> tuple[bytes | None, int]:
    payloads = real_payloads(trace) if include_payloads else {}
    return encode_payloads(payloads), len(payloads)


def trace_blocks(trace: OpTrace, *,
                 include_payloads: bool = True) -> list[tuple[int, bytes]]:
    """HEADER + TRACE_OPS (+ PAYLOADS) for a bare trace artifact."""
    payloads, count = _payload_block(trace, include_payloads)
    header = build_header(trace, kind="trace", num_payloads=count)
    blocks = [(int(ArtifactBlockType.HEADER), pack_json(header)),
              (int(ArtifactBlockType.TRACE_OPS), encode_trace_ops(trace))]
    if payloads is not None:
        blocks.append((int(ArtifactBlockType.PAYLOADS), payloads))
    return blocks


def plan_provenance(plan: "ExecutablePlan") -> dict[str, Any]:
    """The PROVENANCE block document for one plan."""
    return {"tool": "repro.artifact",
            "passes": [getattr(p, "__name__", repr(p))
                       for p in plan.passes],
            "plan_name": plan.name}


def plan_blocks(plan: "ExecutablePlan", *,
                include_payloads: bool = True) -> list[tuple[int, bytes]]:
    """HEADER + TRACE_OPS + PROVENANCE (+ PAYLOADS) for a plan."""
    trace = plan.trace
    payloads, count = _payload_block(trace, include_payloads)
    header = build_header(trace, kind="plan", num_payloads=count)
    blocks = [(int(ArtifactBlockType.HEADER), pack_json(header)),
              (int(ArtifactBlockType.TRACE_OPS), encode_trace_ops(trace)),
              (int(ArtifactBlockType.PROVENANCE),
               pack_json(plan_provenance(plan)))]
    if payloads is not None:
        blocks.append((int(ArtifactBlockType.PAYLOADS), payloads))
    return blocks


def write_artifact(path: str, blocks: list[tuple[int, bytes]]) -> None:
    """Atomically write one container (temp file + ``os.replace``)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory,
                                    prefix=os.path.basename(path) + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as stream:
            write_container(stream, blocks)
        # mkstemp creates 0600; give the artifact normal file modes.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def save_trace(trace: OpTrace, path: str, *,
               include_payloads: bool = True) -> None:
    """Write one :class:`OpTrace` as a ``.rpa`` artifact."""
    write_artifact(path, trace_blocks(trace,
                                      include_payloads=include_payloads))


def save_plan(plan: "ExecutablePlan", path: str, *,
              include_payloads: bool = True) -> None:
    """Write one compiled plan (trace + provenance) as ``.rpa``."""
    write_artifact(path, plan_blocks(plan,
                                     include_payloads=include_payloads))
