"""HE-op trace IR: the recorded form of one evaluator execution.

An :class:`OpTrace` is a linear, SSA-like record of every evaluator-level
operation a workload program executed: each :class:`TraceOp` names its
kind, the operating ciphertext level, the switching key it streamed (for
key-switch ops), and the ops that produced its operands.  Data-flow edges
are recovered from ciphertext identity by the recorder
(:mod:`repro.trace.recorder`), so any program written against the
:class:`~repro.fhe.evaluator.CkksEvaluator` API — or against the
shape-only :class:`~repro.trace.symbolic.SymbolicEvaluator` — becomes a
simulatable workload without hand-maintained DAG transcription.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.fhe.params import CkksParameters

#: Serialization format version written into the JSONL header.
TRACE_FORMAT_VERSION = 1


class OpKind(enum.Enum):
    """Evaluator-level operations the recorder distinguishes.

    The first group lowers 1:1 onto BlockSim block types; the second group
    ("plumbing") is transparent to lowering: those ops move values between
    representations without doing block-level work.  What each kind *is*
    — arity, operands, key, level and scale rule, block — is its row of
    :data:`repro.trace.ops.OPS`, and nowhere else.
    """

    SCALAR_ADD = "scalar_add"
    SCALAR_MULT = "scalar_mult"
    SCALAR_MULT_INT = "scalar_mult_int"
    POLY_ADD = "poly_add"
    POLY_MULT = "poly_mult"
    HE_ADD = "he_add"
    HE_SUB = "he_sub"
    HE_MULT = "he_mult"
    HE_SQUARE = "he_square"
    HE_ROTATE = "he_rotate"
    CONJUGATE = "conjugate"
    RESCALE = "rescale"
    MOD_RAISE = "mod_raise"
    # -- plumbing (transparent to lowering) ------------------------------
    SOURCE = "source"           # fresh ciphertext entering the trace
    MOD_DROP = "mod_drop"       # limb drop, no block-level work
    HOIST = "hoist"             # shared Decomp+ModUp of a rotation batch
    COPY = "copy"               # rotation by 0 / explicit copy
    REFRESH = "refresh"         # symbolic level reset (implicit bootstrap)


@dataclass
class TraceOp:
    """One recorded evaluator call.

    ``level`` is the operating level (operand level after alignment);
    ``out_level`` the level of the produced ciphertext.  ``key`` names the
    switching key for key-switch ops (``rot-<amount>``, ``conj``,
    ``relin``); ``hoist_group`` ties rotations that share one hoisted
    Decomp+ModUp.  ``meta`` carries op-specific detail (rotation amount,
    key-switch digit count, whether an implicit rescale ran).
    """

    op_id: int
    kind: OpKind
    inputs: tuple[int, ...]
    level: int
    out_level: int
    out_scale: float = 0.0
    key: str | None = None
    hoist_group: int | None = None
    region: str = ""
    meta: dict[str, Any] = field(default_factory=dict)


@dataclass
class OpTrace:
    """A full recorded execution: parameters + the op sequence.

    ``payloads`` maps op ids to the concrete plaintext operands the
    recorder captured (real :class:`~repro.fhe.encoder.Plaintext` objects
    in real mode) so :meth:`repro.engine.ExecutablePlan.execute` can
    replay the trace bit-identically.  Payloads are in-memory only: they
    are excluded from equality and from JSONL serialization (a loaded
    trace replays only if it is payload-free or payloads are re-supplied).

    ``output_op_id`` names the op that produced the value the traced
    program *returned* (``None`` when the program returned nothing the
    recorder tracked).  Renumbering passes maintain it, and replay uses
    it to report the program's true output rather than assuming the
    final op produced it.
    """

    params: CkksParameters
    name: str = "trace"
    ops: list[TraceOp] = field(default_factory=list)
    output_op_id: int | None = None
    payloads: dict[int, object] = field(default_factory=dict,
                                        compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: TraceOp) -> TraceOp:
        self.ops.append(op)
        return op

    def op(self, op_id: int) -> TraceOp:
        return self.ops[op_id]

    def counts_by_kind(self) -> Counter[OpKind]:
        """Multiplicity of each op kind (plumbing included)."""
        return Counter(op.kind for op in self.ops)

    def keyswitch_ops(self) -> list[TraceOp]:
        """The ops that stream switching-key material."""
        from .ops import OPS
        return [op for op in self.ops if OPS[op.kind].key is not None]

    def keys_used(self) -> set[str]:
        """Distinct switching-key ids the execution touched."""
        return {op.key for op in self.keyswitch_ops()
                if op.key is not None}

    # -- serialization (JSON lines) ---------------------------------------

    def save_jsonl(self, path: str) -> None:
        """Write the trace as JSON lines: one header, then one op/line.

        The round trip through :meth:`load_jsonl` is exact (op fields,
        meta, and the full parameter set including the generated moduli);
        ``payloads`` are not serialized.  The write is atomic (temp file
        in the destination directory + ``os.replace``): readers never
        observe a truncated trace.
        """
        header = {
            "format": "optrace",
            "version": TRACE_FORMAT_VERSION,
            "name": self.name,
            "output_op_id": self.output_op_id,
            "params": dataclasses.asdict(self.params),
        }
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".",
            suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(header) + "\n")
                for op in self.ops:
                    f.write(json.dumps(_op_to_json(op)) + "\n")
            # mkstemp creates 0600; give the trace normal file modes.
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

    @classmethod
    def load_jsonl(cls, path: str) -> "OpTrace":
        """Read a trace written by :meth:`save_jsonl`."""
        with open(path) as f:
            lines = [line for line in f if line.strip()]
        if not lines:
            raise ValueError(f"{path}: empty trace file")
        header = json.loads(lines[0])
        if header.get("format") != "optrace":
            raise ValueError(f"{path}: not an OpTrace JSONL file")
        if header.get("version") != TRACE_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported trace format version "
                             f"{header.get('version')!r}")
        trace = cls(params=CkksParameters.from_doc(header.get("params")),
                    name=header["name"],
                    output_op_id=header.get("output_op_id"))
        for line in lines[1:]:
            trace.append(_op_from_json(json.loads(line)))
        return trace

    # -- serialization (binary .rpa container) -----------------------------

    def save_binary(self, path: str, *,
                    include_payloads: bool = True) -> None:
        """Write the trace as a ``.rpa`` artifact (columnar op tables).

        The binary sibling of :meth:`save_jsonl`: the round trip through
        :meth:`load_binary` is exact, several times smaller on disk, and
        — unlike JSONL — also carries real plaintext ``payloads`` (when
        present and ``include_payloads``) so a loaded trace can replay.
        See :mod:`repro.artifact` for the container format.
        """
        from repro.artifact import save_trace
        save_trace(self, path, include_payloads=include_payloads)

    @classmethod
    def load_binary(cls, path: str) -> "OpTrace":
        """Read a trace from a ``.rpa`` artifact (trace or plan kind)."""
        from repro.artifact import load_trace
        return load_trace(path)


def _meta_to_json(value: Any) -> Any:
    """Meta values are JSON scalars except complex (tagged pair)."""
    if isinstance(value, complex):
        return {"__complex__": [value.real, value.imag]}
    return value


def _meta_from_json(value: Any) -> Any:
    if isinstance(value, dict) and "__complex__" in value:
        real, imag = value["__complex__"]
        return complex(real, imag)
    return value


def _op_to_json(op: TraceOp) -> dict[str, Any]:
    return {
        "op_id": op.op_id,
        "kind": op.kind.value,
        "inputs": list(op.inputs),
        "level": op.level,
        "out_level": op.out_level,
        "out_scale": op.out_scale,
        "key": op.key,
        "hoist_group": op.hoist_group,
        "region": op.region,
        "meta": {k: _meta_to_json(v) for k, v in op.meta.items()},
    }


def _op_from_json(doc: dict[str, Any]) -> TraceOp:
    try:
        kind = OpKind(doc["kind"])
    except ValueError:
        raise ValueError(
            f"op {doc.get('op_id')}: unknown op kind {doc['kind']!r} "
            f"(known kinds: {', '.join(k.value for k in OpKind)})"
        ) from None
    return TraceOp(
        op_id=doc["op_id"],
        kind=kind,
        inputs=tuple(doc["inputs"]),
        level=doc["level"],
        out_level=doc["out_level"],
        out_scale=doc["out_scale"],
        key=doc["key"],
        hoist_group=doc["hoist_group"],
        region=doc["region"],
        meta={k: _meta_from_json(v) for k, v in doc["meta"].items()},
    )
