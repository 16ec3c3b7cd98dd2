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

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.fhe.params import CkksParameters


class OpKind(enum.Enum):
    """Evaluator-level operations the recorder distinguishes.

    The first group lowers onto BlockSim block types, one block per op
    (a ``rotate_add`` group one rotation block per key, plus the adds of
    its sum); the second group ("plumbing") is transparent to lowering:
    those ops move values between representations without doing
    block-level work.  What each kind *is*
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
    ROTATE_ADD = "rotate_add"
    CONJUGATE = "conjugate"
    RESCALE = "rescale"
    MOD_RAISE = "mod_raise"
    # -- plumbing (transparent to lowering) ------------------------------
    SOURCE = "source"           # fresh ciphertext entering the trace
    MOD_DROP = "mod_drop"       # limb drop, no block-level work
    COPY = "copy"               # rotation by 0 / explicit copy
    REFRESH = "refresh"         # symbolic level reset (implicit bootstrap)


@dataclass
class TraceOp:
    """One recorded evaluator call.

    ``level`` is the operating level (operand level after alignment);
    ``out_level`` the level of the produced ciphertext.  ``key`` names the
    switching key for key-switch ops (``rot-<amount>``, ``conj``,
    ``relin``; a rotation group's ids joined by ``,``).  Galois ops that
    read one value share one hoisted Decomp+ModUp at replay
    (:func:`repro.trace.ops.galois_groups`): the data flow is the only
    record of hoisting.  ``meta`` carries op-specific
    detail (rotation amount, key-switch digit count, whether an implicit
    rescale ran).
    """

    op_id: int
    kind: OpKind
    inputs: tuple[int, ...]
    level: int
    out_level: int
    out_scale: float = 0.0
    key: str | None = None
    region: str = ""
    meta: dict[str, Any] = field(default_factory=dict)


@dataclass
class OpTrace:
    """A full recorded execution: parameters + the op sequence.

    ``payloads`` maps op ids to the concrete plaintext operands the
    recorder captured (real :class:`~repro.fhe.encoder.Plaintext` objects
    in real mode) so :meth:`repro.engine.ExecutablePlan.execute` can
    replay the trace bit-identically.  They are excluded from equality;
    the one on-disk form, a ``.rpa`` artifact (:mod:`repro.artifact`),
    carries the real ones.

    ``output_op_id`` names the op that produced the value the traced
    program *returned* (``None`` when the program returned nothing the
    recorder tracked).  Replay uses it to report the program's true
    output rather than assuming the final op produced it.
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
        return {key for op in self.keyswitch_ops() if op.key is not None
                for key in op.key.split(",")}
