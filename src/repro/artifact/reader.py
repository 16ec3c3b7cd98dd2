"""Read ``.rpa`` artifacts back into traces and executable plans.

The reader walks the container's block frames (integrity is checked per
block by :func:`repro.artifact.format.read_container`) and dispatches
each block through a central handler registry — the fst_spec idiom, with
the failure mode inverted: a *recognized container* carrying an
*unrecognized block type* is skipped with an
:class:`~repro.artifact.format.UnknownBlockWarning` instead of raising,
so an old reader degrades gracefully on a new writer's extra blocks.
Only a newer **container** version (a framing change) refuses to load.

This is the one way outside bytes become a trace or a plan: it raises
only :class:`~repro.artifact.format.ArtifactError` subclasses naming the
file and the block, holds the blocks to the HEADER's promises, and
refuses a trace no data-flow check could read or replay could run
(:func:`repro.trace.ops.structural_problems`).  A plan is its trace:
:func:`load_plan` lowers the block graph again.  Files written while
the format still stored that graph carry it as block type 3, which this
reader skips like any unrecognized block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, BinaryIO, Callable

from repro.fhe.params import CkksParameters
from repro.trace.invariants import TraceValidationError
from repro.trace.ir import OpTrace
from repro.trace.ops import structural_problems

from .columnar import decode_payloads, decode_trace_ops
from .format import (TRACE_FORMAT_VERSION, ArtifactBlockType, ArtifactError,
                     ArtifactFormatError, UnknownBlockWarning, block_name,
                     read_container, unpack_json)

if TYPE_CHECKING:
    from repro.engine.plan import ExecutablePlan


@dataclass
class Artifact:
    """One decoded ``.rpa`` container (or an in-memory equivalent).

    ``block_sizes`` maps block names to payload byte counts (zero for
    in-memory views built by :func:`artifact_view`); ``skipped_blocks``
    lists the type ids of blocks this reader did not recognize.
    """

    header: dict[str, Any]
    trace: OpTrace | None = None
    provenance: dict[str, Any] | None = None
    payloads: dict[int, Any] = field(default_factory=dict)
    path: str | None = None
    block_sizes: dict[str, int] = field(default_factory=dict)
    skipped_blocks: list[int] = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.header.get("name", ""))

    @property
    def kind(self) -> str:
        return str(self.header.get("kind", ""))

    @property
    def fingerprint(self) -> str:
        return str(self.header.get("fingerprint", ""))

    @property
    def params(self) -> CkksParameters:
        return _params_from_header(self.header)


def _params_from_header(header: dict[str, Any]) -> CkksParameters:
    try:
        return CkksParameters.from_doc(header.get("params"))
    except (TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"HEADER: {exc}") from None


# ---------------------------------------------------------------------------
# block handler registry (fst_spec idiom, graceful on unknowns)
# ---------------------------------------------------------------------------

def _handle_header(payload: bytes, artifact: Artifact) -> None:
    header = unpack_json(payload, "HEADER")
    if header.get("format") != "rpa":
        raise ArtifactFormatError("HEADER: not an rpa header "
                                  f"(format={header.get('format')!r})")
    schema = header.get("schema_version")
    if not isinstance(schema, int) or schema > TRACE_FORMAT_VERSION:
        raise ArtifactError(
            f"HEADER: trace schema version {schema!r} is newer than "
            f"this reader (supports <= {TRACE_FORMAT_VERSION}); upgrade "
            "repro to read it")
    artifact.header = header


def _handle_trace_ops(payload: bytes, artifact: Artifact) -> None:
    header = artifact.header
    raw_output = header.get("output_op_id")
    output_op_id = raw_output if isinstance(raw_output, int) else None
    trace = decode_trace_ops(
        payload, _params_from_header(header), str(header.get("name", "")),
        output_op_id)
    for position, op in enumerate(trace.ops):
        problems = structural_problems(op, position)
        if problems:
            raise ArtifactFormatError(f"TRACE_OPS: op {position}: "
                                      f"{problems[0]}")
    artifact.trace = trace


def _handle_provenance(payload: bytes, artifact: Artifact) -> None:
    artifact.provenance = unpack_json(payload, "PROVENANCE")


def _handle_payloads(payload: bytes, artifact: Artifact) -> None:
    artifact.payloads = dict(decode_payloads(payload))


#: Central registry: block type -> decoder.  Append-only.
BLOCK_HANDLERS: dict[int, Callable[[bytes, Artifact], None]] = {
    int(ArtifactBlockType.HEADER): _handle_header,
    int(ArtifactBlockType.TRACE_OPS): _handle_trace_ops,
    int(ArtifactBlockType.PROVENANCE): _handle_provenance,
    int(ArtifactBlockType.PAYLOADS): _handle_payloads,
}


#: The blocks each artifact kind always carries.
_REQUIRED_BLOCKS = {"trace": ("TRACE_OPS",),
                    "plan": ("TRACE_OPS", "PROVENANCE")}


def _check_header(artifact: Artifact, where: str) -> None:
    """Hold the decoded blocks to what HEADER says the file carries."""
    required = _REQUIRED_BLOCKS.get(artifact.kind)
    if required is None:
        raise ArtifactFormatError(f"{where}: HEADER: unknown artifact "
                                  f"kind {artifact.kind!r}")
    for name in required:
        if name not in artifact.block_sizes:
            raise ArtifactFormatError(f"{where}: {artifact.kind} artifact "
                                      f"has no {name} block")
    assert artifact.trace is not None       # every kind carries TRACE_OPS
    found = {"ops": len(artifact.trace.ops),
             "payloads": len(artifact.payloads)}
    counts = artifact.header.get("counts")
    if not isinstance(counts, dict) \
            or {key: counts.get(key) for key in found} != found:
        raise ArtifactFormatError(f"{where}: HEADER counts {counts} do not "
                                  f"match the decoded blocks {found}")


def read_artifact_stream(stream: BinaryIO,
                         where: str = "artifact") -> Artifact:
    """Decode one container from an open binary stream."""
    blocks = read_container(stream, where)
    if not blocks:
        raise ArtifactFormatError(f"{where}: container has no blocks, "
                                  "not even HEADER")
    first_type = blocks[0][0]
    if first_type != int(ArtifactBlockType.HEADER):
        raise ArtifactFormatError(
            f"{where}: first block is {block_name(first_type)}, "
            "expected HEADER")
    artifact = Artifact(header={}, path=None)
    for block_type, payload in blocks:
        handler = BLOCK_HANDLERS.get(block_type)
        if handler is None:
            warnings.warn(
                f"{where}: skipping unrecognized block type "
                f"{block_type} ({len(payload)} bytes); written by a "
                "newer repro?", UnknownBlockWarning, stacklevel=2)
            artifact.skipped_blocks.append(block_type)
            continue
        try:
            handler(payload, artifact)
        except ArtifactError as exc:
            raise type(exc)(f"{where}: {exc}") from None
        name = block_name(block_type)
        artifact.block_sizes[name] = \
            artifact.block_sizes.get(name, 0) + len(payload)
    _check_header(artifact, where)
    if artifact.trace is not None and artifact.payloads:
        artifact.trace.payloads.update(artifact.payloads)
    return artifact


def read_artifact(path: str) -> Artifact:
    """Decode the container at ``path``."""
    with open(path, "rb") as stream:
        artifact = read_artifact_stream(stream, where=path)
    artifact.path = path
    return artifact


# ---------------------------------------------------------------------------
# high-level loaders
# ---------------------------------------------------------------------------

def load_trace(path: str) -> OpTrace:
    """Load the :class:`OpTrace` from an ``.rpa`` artifact (trace or
    plan kind)."""
    trace = read_artifact(path).trace
    assert trace is not None                # every kind carries TRACE_OPS
    return trace


def load_plan(path: str) -> "ExecutablePlan":
    """Load a compiled plan; it simulates/profiles identically to (and,
    with a payload block, executes bit-identically to) the plan
    :func:`repro.engine.compile` produced before saving.

    The plan is built the one way a plan is built
    (:class:`~repro.engine.ExecutablePlan` validates, lowers and checks
    the stored trace), so a trace that ``engine.compile`` refuses is an
    :class:`ArtifactFormatError` naming TRACE_OPS and the op.
    :func:`load_trace` stays lenient: the linter reads a broken trace.
    The loaded plan's provenance (producing tool, plan name) is kept on
    :attr:`~repro.engine.ExecutablePlan.provenance`.
    """
    from repro.engine.plan import ExecutablePlan

    artifact = read_artifact(path)
    assert artifact.trace is not None       # every kind carries TRACE_OPS
    try:
        plan = ExecutablePlan(artifact.trace, artifact.name)
    except TraceValidationError as exc:
        raise ArtifactFormatError(f"{path}: TRACE_OPS: {exc}") from None
    plan.provenance = dict(artifact.provenance or {})
    plan.provenance.setdefault("fingerprint", artifact.fingerprint)
    plan.provenance.setdefault("artifact_path", path)
    return plan
