"""Read ``.rpa`` artifacts back into traces and executable plans.

The reader walks the container's block frames (integrity is checked per
block by :func:`repro.artifact.format.read_container`) and dispatches
each block through a central handler registry — the fst_spec idiom, with
the failure mode inverted: a *recognized container* carrying an
*unrecognized block type* is skipped with an
:class:`~repro.artifact.format.UnknownBlockWarning` instead of raising,
so an old reader degrades gracefully on a new writer's extra blocks.
Only a newer **container** version (a framing change) refuses to load.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, BinaryIO, Callable

from repro.fhe.params import CkksParameters
from repro.trace.ir import TRACE_FORMAT_VERSION, OpTrace

from .columnar import decode_dag, decode_payloads, decode_trace_ops
from .format import (ArtifactBlockType, ArtifactError, ArtifactFormatError,
                     UnknownBlockWarning, read_container, unpack_json)

if TYPE_CHECKING:
    from repro.dag import DiGraph
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
    graph: "DiGraph | None" = None
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
    except ValueError as exc:
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
    artifact.trace = decode_trace_ops(
        payload, _params_from_header(header), str(header.get("name", "")),
        output_op_id)


def _handle_dag(payload: bytes, artifact: Artifact) -> None:
    artifact.graph = decode_dag(payload)


def _handle_provenance(payload: bytes, artifact: Artifact) -> None:
    artifact.provenance = unpack_json(payload, "PROVENANCE")


def _handle_payloads(payload: bytes, artifact: Artifact) -> None:
    artifact.payloads = dict(decode_payloads(payload))


#: Central registry: block type -> (name, decoder).  Append-only.
BLOCK_HANDLERS: dict[int, tuple[str, Callable[[bytes, Artifact], None]]] = {
    int(ArtifactBlockType.HEADER): ("HEADER", _handle_header),
    int(ArtifactBlockType.TRACE_OPS): ("TRACE_OPS", _handle_trace_ops),
    int(ArtifactBlockType.DAG): ("DAG", _handle_dag),
    int(ArtifactBlockType.PROVENANCE): ("PROVENANCE", _handle_provenance),
    int(ArtifactBlockType.PAYLOADS): ("PAYLOADS", _handle_payloads),
}


def block_name(block_type: int) -> str:
    """Display name for a block type (``type-N`` for unknown ids)."""
    entry = BLOCK_HANDLERS.get(block_type)
    return entry[0] if entry is not None else f"type-{block_type}"


def read_artifact_stream(stream: BinaryIO,
                         where: str = "artifact") -> Artifact:
    """Decode one container from an open binary stream."""
    blocks = read_container(stream, where)
    if not blocks:
        raise ArtifactFormatError(f"{where}: container has no blocks")
    first_type = blocks[0][0]
    if first_type != int(ArtifactBlockType.HEADER):
        raise ArtifactFormatError(
            f"{where}: first block is {block_name(first_type)}, "
            "expected HEADER")
    artifact = Artifact(header={}, path=None)
    for block_type, payload in blocks:
        entry = BLOCK_HANDLERS.get(block_type)
        if entry is None:
            warnings.warn(
                f"{where}: skipping unrecognized block type "
                f"{block_type} ({len(payload)} bytes); written by a "
                "newer repro?", UnknownBlockWarning, stacklevel=2)
            artifact.skipped_blocks.append(block_type)
            continue
        name, handler = entry
        handler(payload, artifact)
        artifact.block_sizes[name] = \
            artifact.block_sizes.get(name, 0) + len(payload)
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
    """Load the :class:`OpTrace` from an ``.rpa`` artifact."""
    artifact = read_artifact(path)
    if artifact.trace is None:
        raise ArtifactError(f"{path}: artifact has no TRACE_OPS block")
    return artifact.trace


def load_plan(path: str) -> "ExecutablePlan":
    """Load a compiled plan; it simulates/profiles identically to (and,
    with a payload block, executes bit-identically to) the plan
    :func:`repro.engine.compile` produced before saving.

    The lowered DAG is rebuilt from the artifact's tables (no
    re-lowering) and re-validated against the workload-DAG invariants;
    the loaded plan's provenance (pass names, producing tool) is kept on
    :attr:`~repro.engine.ExecutablePlan.provenance`.
    """
    from repro.engine.plan import ExecutablePlan
    from repro.trace import assert_workload_dag

    artifact = read_artifact(path)
    if artifact.trace is None:
        raise ArtifactError(f"{path}: artifact has no TRACE_OPS block")
    graph = artifact.graph
    if graph is None:
        if artifact.kind == "plan":
            raise ArtifactError(f"{path}: plan artifact has no DAG "
                                "block")
        # A bare trace artifact still loads as a plan: lower it now.
        from repro.trace import lower_expanded_trace
        graph = lower_expanded_trace(artifact.trace)
    params = artifact.params
    assert_workload_dag(graph, params=params,
                        require_keyswitch_meta=True)
    plan = ExecutablePlan(params=params, graph=graph,
                          name=artifact.name, trace=artifact.trace)
    plan.provenance = dict(artifact.provenance or {})
    plan.provenance.setdefault("fingerprint", artifact.fingerprint)
    plan.provenance.setdefault("artifact_path", path)
    return plan
