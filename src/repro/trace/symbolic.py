"""Shape-only symbolic execution of CKKS evaluator programs.

:class:`SymbolicEvaluator` implements the :class:`CkksEvaluator` call
surface on handles that carry only (level, scale) — no limb arithmetic,
no keys, no NTTs — so a paper-scale workload (N=2^16, L=23) traces in
milliseconds instead of the hours a functional execution would take.
Level and scale bookkeeping mirrors the real evaluator (rescale divides
by the dropped modulus and consumes a level, multiplication composes
scales, binary ops align to the lower operand level), which is what the
trace recorder and the BlockSim lowering need; slot values are never
computed.

Given a real ``encoder``, a recorder keeps payloads a real context
replays bit-identically, with no key, encryption or transform made:
how a served plan is compiled.

Two extra ops exist only symbolically:

* :meth:`SymbolicEvaluator.mod_raise` — the bootstrap entry lift
  (functionally owned by :class:`~repro.fhe.bootstrap.Bootstrapper`);
* :meth:`SymbolicEvaluator.refresh` — an explicit level reset standing in
  for "a bootstrap happened here" in schematic workload programs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import Any

from repro.fhe.encoder import CkksEncoder
from repro.fhe.params import CkksParameters

from .ir import OpKind
from .ops import (OPS, OpSpec, check, expected_out_level, handle_flags,
                  install_methods, out_scale)


@dataclass(slots=True)
class SymbolicCiphertext:
    """A ciphertext handle: level + scale, no data.  ``relinearized`` is
    False on a product made with ``relinearize=False`` and its rescale:
    like a real degree-2 ciphertext, only ``rescale`` takes it.
    ``manual_scale`` is True inside a declared ``rescale=False`` region,
    where additions of unequal scales are the program's own business
    (:func:`repro.trace.ops.handle_flags`)."""

    level: int
    scale: float
    relinearized: bool = True
    manual_scale: bool = False

    @property
    def num_limbs(self) -> int:
        return self.level + 1

    def copy(self) -> "SymbolicCiphertext":
        return replace(self)


@dataclass
class SymbolicPlaintext:
    """An encoded-plaintext handle (scale only)."""

    scale: float


class SymbolicEvaluator:
    """Level/scale-faithful evaluator over :class:`SymbolicCiphertext`."""

    def __init__(self, params: CkksParameters,
                 encoder: CkksEncoder | None = None) -> None:
        self.params = params
        #: The encoder programs call (``ev.encoder.encode(values,
        #: scale)``, ``encode_constant(value, scale)``): this
        #: evaluator's scale-only one, or a real one.
        self.encoder: CkksEncoder | SymbolicEvaluator = \
            self if encoder is None else encoder

    # -- handle construction ----------------------------------------------

    def encode(self, values: Any,
               scale: float | None = None) -> SymbolicPlaintext:
        """An encoded plaintext of ``values`` (dropped) at ``scale``."""
        return self.plaintext(scale)

    def encode_constant(self, value: float,
                        scale: float | None = None) -> SymbolicPlaintext:
        """The all-``value`` plaintext (dropped) at ``scale``, as
        :meth:`~repro.fhe.encoder.CkksEncoder.encode_constant`."""
        return self.plaintext(scale)

    def fresh(self, level: int | None = None,
              scale: float | None = None) -> SymbolicCiphertext:
        """A fresh encryption entering the program."""
        if level is None:
            level = self.params.max_level
        self._check_level(level)
        return SymbolicCiphertext(level, scale or self.params.scale)

    def plaintext(self, scale: float | None = None) -> SymbolicPlaintext:
        """An encoded plaintext operand."""
        return SymbolicPlaintext(scale or self.params.scale)

    # -- the evaluator call surface ----------------------------------------
    #
    # One method per row of the op table, installed below
    # (:func:`repro.trace.ops.install_methods`); each call is checked as
    # the real evaluator checks it, and each result handle is what the
    # row prescribes: its level rule over the aligned operand level, its
    # scale rule over the operand scales.

    def _apply(self, spec: OpSpec, cts: tuple[SymbolicCiphertext, ...],
               operands: tuple[Any, ...], rescale: bool | None,
               relinearize: bool = True) -> SymbolicCiphertext:
        check(spec, cts, operands, self.params, rescale)
        level = min([ct.level for ct in cts])
        out_level = expected_out_level(
            spec, level, dict(zip(spec.meta_args, operands)),
            self.params.max_level)
        assert out_level is not None
        scales = [ct.scale for ct in cts]
        if spec.payload:
            scales.append(operands[0].scale)
        elif "value" in spec.meta_args:
            scales.append(self.params.scale)
        scale = out_scale(spec, self.params, level, scales)
        result = SymbolicCiphertext(out_level, scale, *handle_flags(
            spec, cts, rescale, relinearize, scale, self.params))
        if rescale:
            return self._apply(OPS[OpKind.RESCALE], (result,), (), None)
        return result

    def hoisted_rotations(self, ct: SymbolicCiphertext,
                          rotations: Iterable[int]
                          ) -> dict[int, SymbolicCiphertext]:
        """One ``he_rotate`` handle per distinct amount mod
        ``num_slots``: hoisted or not, a rotation is the same shape."""
        spec = OPS[OpKind.HE_ROTATE]
        return {r: self._apply(spec, (ct,), (r,), None) for r in
                sorted({r % self.params.num_slots for r in rotations})}

    # -- symbolic-only ops -------------------------------------------------
    #
    # ``mod_raise`` (the bootstrap entry lift, re-reading the residues
    # over the full chain) is a row of the table like any other.

    def refresh(self, ct: SymbolicCiphertext,
                level: int) -> SymbolicCiphertext:
        """Schematic level reset (an elided bootstrap in a program): a
        fresh handle at Delta, so no declared region reaches past it."""
        spec = OPS[OpKind.REFRESH]
        check(spec, (ct,), (), self.params, None)
        self._check_level(level)
        return SymbolicCiphertext(level, out_scale(
            spec, self.params, ct.level, [ct.scale]))

    def _check_level(self, level: int) -> None:
        if level < 0 or level > self.params.max_level:
            raise ValueError(f"level {level} out of range "
                             f"[0, {self.params.max_level}]")


install_methods(SymbolicEvaluator, OPS.values())
