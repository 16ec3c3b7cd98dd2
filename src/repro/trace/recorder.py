"""OpTrace recorder: hook an evaluator and capture every operation.

:class:`TracingEvaluator` wraps either a functional
:class:`~repro.fhe.evaluator.CkksEvaluator` (real limb arithmetic,
test-scale parameters) or a
:class:`~repro.trace.symbolic.SymbolicEvaluator` (shape-only handles,
paper-scale parameters) behind the same call surface.  Every public op
call is delegated to the wrapped evaluator, once, and recorded as what
it computes: one :class:`~repro.trace.ir.TraceOp`, or two for a call
with ``rescale=True`` — the product and a ``RESCALE`` of it, the
primitives the paper counts (replay runs them as one call again where
the data flow allows, :func:`repro.trace.ops.fused_rescales`), so the
trace needs no rewriting before lowering.  Data-flow dependencies are
recovered
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
        #: id(ciphertext) -> producing op id.
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
        """Record one op over ciphertext operands and track its result."""
        inputs = tuple([self._resolve(operand) for operand in operands])
        level = min([o.level for o in operands], default=result.level)
        return self._track(result, self._append(
            kind, inputs, level, result.level,
            getattr(result, "scale", 0.0), meta))

    def _append(self, kind: OpKind, inputs: tuple[int, ...], level: int,
                out_level: int, out_scale: float,
                meta: dict[str, Any]) -> int:
        """Append one op; the key id and key-switch shape are its table
        row's (none for a product left unrelinearized).  Returns its
        id."""
        key = key_id(OPS[kind], meta)
        if key is not None:
            meta.update(keyswitch_meta(self.params, level))
        op = TraceOp(op_id=len(self.trace.ops), kind=kind, inputs=inputs,
                     level=level, out_level=out_level, out_scale=out_scale,
                     key=key, region=self.current_region, meta=meta)
        self.trace.append(op)
        return op.op_id

    def _track(self, result: Any, op_id: int) -> Any:
        """Map ``result`` to the op that produced it."""
        self._producers[id(result)] = op_id
        self._keepalive.append(result)
        return result

    # -- the evaluator call surface ----------------------------------------
    #
    # One method per row of the op table, installed below
    # (:func:`repro.trace.ops.install_methods`); the explicit ones are
    # rotation by 0, ``rotate_add``, ``refresh`` and the rotation batch.

    def _apply(self, spec: OpSpec, cts: tuple[Any, ...],
               operands: tuple[Any, ...], rescale: bool | None,
               relinearize: bool = True) -> Any:
        """Delegate one call and record it the way its row says: scalar
        operands in ``meta`` (JSON-safe), an encoded plaintext in
        ``trace.payloads``, so that
        :meth:`repro.engine.ExecutablePlan.execute` can replay the
        trace against a real context bit-identically.

        ``rescale=True`` is one call, recorded as what it computes: the
        product at its operating level (the payload stays on it) and a
        ``RESCALE`` of it, which the result maps to.  ``rescale=False``
        is recorded as ``meta["rescaled"] = False``, the program's
        declaration that it manages this product's scale itself
        (:func:`repro.analysis.check_scales`).  ``relinearize=False``
        is passed on by name and recorded as ``meta["relinearized"] =
        False``: the product switches no key
        (:func:`repro.trace.ops.switches_key`)."""
        assert spec.method is not None
        fused = () if rescale is None else (rescale,)
        flags = {} if relinearize else {"relinearize": False}
        result = getattr(self.inner, spec.method)(*cts, *operands, *fused,
                                                  **flags)
        meta: dict[str, Any] = {"rescaled": False} if rescale is False \
            else {}
        if not relinearize:
            meta["relinearized"] = False
        meta.update(zip(spec.meta_args, operands))
        inputs = tuple([self._resolve(ct) for ct in cts])
        level = min([ct.level for ct in cts])
        if rescale:
            op_id = self._append(spec.kind, inputs, level, level,
                                 result.scale * self.params.moduli[level],
                                 meta)
            self._track(result, self._append(
                OpKind.RESCALE, (op_id,), level, result.level,
                result.scale, {}))
        else:
            op_id = self._append(spec.kind, inputs, level, result.level,
                                 result.scale, meta)
            self._track(result, op_id)
        if spec.payload:
            self.trace.payloads[op_id] = operands[0]
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

    def hoisted_rotations(self, ct: Any,
                          rotations: Iterable[int]) -> dict[int, Any]:
        """The inner evaluator's batch (hoisted, for a real one), recorded
        as one plain op per amount: replay hoists the rotations again
        because they read one value."""
        rotated: dict[int, Any] = self.inner.hoisted_rotations(ct, rotations)
        for amount, result in rotated.items():
            if amount == 0:
                self._emit(OpKind.COPY, (ct,), result)
            else:
                self._emit(OpKind.HE_ROTATE, (ct,), result,
                           rotation=amount)
        return rotated


install_methods(TracingEvaluator, OPS.values())
