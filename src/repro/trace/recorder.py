"""OpTrace recorder: hook an evaluator and capture every operation.

:class:`TracingEvaluator` wraps either a functional
:class:`~repro.fhe.evaluator.CkksEvaluator` (real limb arithmetic,
test-scale parameters) or a
:class:`~repro.trace.symbolic.SymbolicEvaluator` (shape-only handles,
paper-scale parameters) behind the same call surface.  Every public op
call is delegated to the wrapped evaluator and recorded as one
:class:`~repro.trace.ir.TraceOp`; data-flow dependencies are recovered
from *ciphertext identity* — each returned ciphertext object is mapped to
the op that produced it, and operands the recorder has never seen enter
the trace as ``SOURCE`` ops (fresh encryptions).

Because code like :class:`~repro.fhe.linear.LinearTransform` and
:class:`~repro.fhe.bootstrap.Bootstrapper` takes the evaluator as a
dependency, passing a ``TracingEvaluator`` in their place records their
whole execution with no changes to the library.  Granularity is the
evaluator API: polynomial arithmetic done behind the evaluator's back
(e.g. the raw ``c0 * pt`` products inside BSGS inner loops) is invisible,
and its results re-enter the trace as sources.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.fhe.evaluator import CkksEvaluator

from .ir import OpKind, OpTrace, TraceOp
from .ops import OPS, OpSpec, install_methods, key_id, keyswitch_meta


class TracingEvaluator:
    """Records an :class:`OpTrace` while delegating to a real or symbolic
    evaluator.

    Attribute access falls through to the wrapped evaluator, so contexts
    that expect ``evaluator.encoder`` / ``evaluator.context`` /
    ``evaluator.keygen`` (real mode) or ``evaluator.fresh`` /
    ``evaluator.plaintext`` (symbolic mode) keep working.
    """

    def __init__(self, inner: Any, name: str = "trace") -> None:
        self.inner = inner
        self.params = inner.params
        self.trace = OpTrace(params=inner.params, name=name)
        #: id(ciphertext-or-hoisted-handle) -> producing op id.
        self._producers: dict[int, int] = {}
        #: Strong refs to every tracked object so ids stay unique.
        self._keepalive: list[Any] = []
        self._regions: list[str] = []

    def __getattr__(self, attr: str) -> Any:
        return getattr(self.inner, attr)

    # -- regions -----------------------------------------------------------

    @contextmanager
    def region(self, name: str) -> Iterator[TracingEvaluator]:
        """Label subsequent ops with a nested region (``a/b/c``)."""
        self._regions.append(name)
        try:
            yield self
        finally:
            self._regions.pop()

    @property
    def current_region(self) -> str:
        return "/".join(self._regions)

    # -- recording machinery ----------------------------------------------

    def _resolve(self, operand: Any) -> int:
        """Op id that produced ``operand``; a lazy SOURCE if unseen."""
        if id(operand) not in self._producers:
            self._emit(OpKind.SOURCE, (), operand)
        return self._producers[id(operand)]

    def producer_of(self, obj: Any) -> int | None:
        """Op id that produced ``obj``, or None if untracked (used by
        the engine to mark the program's returned value)."""
        return self._producers.get(id(obj))

    def _emit(self, kind: OpKind, operands: tuple[Any, ...], result: Any,
              **meta: Any) -> Any:
        """Record one op over ciphertext operands and track its result;
        the key id and key-switch shape are its table row's."""
        spec = OPS[kind]
        inputs = tuple([self._resolve(operand) for operand in operands])
        level = min([o.level for o in operands], default=result.level)
        if spec.key is not None:
            meta.update(keyswitch_meta(self.params, level))
        op = TraceOp(op_id=len(self.trace.ops), kind=kind, inputs=inputs,
                     level=level, out_level=result.level,
                     out_scale=getattr(result, "scale", 0.0),
                     key=key_id(spec, meta), region=self.current_region,
                     meta=meta)
        self.trace.append(op)
        self._producers[id(result)] = op.op_id
        self._keepalive.append(result)
        return result

    # -- the evaluator call surface ----------------------------------------
    #
    # One method per row of the op table, installed below
    # (:func:`repro.trace.ops.install_methods`); the explicit ones are
    # rotation by 0, the two methods on a hoisted handle, ``rotate_add``
    # and ``refresh``.

    def _apply(self, spec: OpSpec, cts: tuple[Any, ...],
               operands: tuple[Any, ...], rescale: bool | None) -> Any:
        """Delegate one call and record it the way its row says: scalar
        operands in ``meta`` (JSON-safe), an encoded plaintext in
        ``trace.payloads``, so that
        :meth:`repro.engine.ExecutablePlan.execute` can replay the
        trace against a real context bit-identically."""
        assert spec.method is not None
        fused = () if rescale is None else (rescale,)
        result = getattr(self.inner, spec.method)(*cts, *operands, *fused)
        meta = {} if rescale is None else {"rescaled": rescale}
        meta.update(zip(spec.meta_args, operands))
        self._emit(spec.kind, cts, result, **meta)
        if spec.payload:
            self.trace.payloads[self._producers[id(result)]] = operands[0]
        return result

    def he_rotate(self, ct: Any, rotation: int) -> Any:
        amount = rotation % self.params.num_slots
        if amount == 0:
            return self._emit(OpKind.COPY, (ct,),
                              self.inner.he_rotate(ct, rotation))
        return self._apply(OPS[OpKind.HE_ROTATE], (ct,), (amount,), None)

    def rotate_add(self, ct: Any, rotations: Iterable[int]) -> Any:
        """One op: the amounts reduced mod ``num_slots`` as a JSON-safe
        list."""
        amounts = [int(r) % self.params.num_slots for r in rotations]
        return self._emit(OpKind.ROTATE_ADD, (ct,),
                          self.inner.rotate_add(ct, amounts),
                          rotations=amounts)

    def refresh(self, ct: Any, level: int) -> Any:
        """Schematic level reset; requires a symbolic inner evaluator."""
        return self._emit(OpKind.REFRESH, (ct,),
                          self.inner.refresh(ct, level))

    # -- hoisted rotations -------------------------------------------------
    #
    # ``hoist`` is a row of the table; an op that reads its handle is
    # recorded as the plain op, and the ``HOIST`` input is what makes it
    # hoisted.

    def rotate_hoisted(self, hoisted: Any, rotation: int) -> Any:
        amount = rotation % self.params.num_slots
        result = self.inner.rotate_hoisted(hoisted, rotation)
        if amount == 0:
            return self._emit(OpKind.COPY, (hoisted,), result)
        return self._emit(OpKind.HE_ROTATE, (hoisted,), result,
                          rotation=amount)

    def conjugate_hoisted(self, hoisted: Any) -> Any:
        return self._emit(OpKind.CONJUGATE, (hoisted,),
                          self.inner.conjugate_hoisted(hoisted))

    hoisted_rotations = CkksEvaluator.hoisted_rotations


install_methods(TracingEvaluator)
