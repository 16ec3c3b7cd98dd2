"""The op table: what each :class:`~repro.trace.ir.OpKind` *is*.

:data:`OPS` holds one :class:`OpSpec` per kind — the evaluator method
that applies it, its ciphertext arity, where its plaintext operand
lives, its switching key, its level and scale rules, the BlockSim block
it lowers to.  The recorder, both evaluators, replay
(:meth:`repro.engine.ExecutablePlan.execute`), lowering, the
``validate_trace`` pass and the linter read this table and the rule
functions below; none of them restates a per-kind fact.  ``README.md``
in this directory carries :func:`render_table`'s output.  :func:`check`
is the one precondition: both evaluators and the linter refuse by it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.blocksim.blocks import BlockType
from repro.fhe.params import CkksParameters

from .ir import OpKind, OpTrace, TraceOp


class LevelRule(NamedTuple):
    """Output level from ``(operating level, meta, max_level)``; ``None``
    is no expectation.  A rule reads only its op's ``meta_args``."""

    name: str
    apply: Callable[[int, Mapping[str, Any], int], int | None]


class ScaleRule(NamedTuple):
    """Output scale from ``(scales, params, operating level)``; ``scales``
    are the inputs' followed by the plaintext operand's, if any."""

    name: str
    apply: Callable[[Sequence[float], CkksParameters, int], float]


SAME_LEVEL = LevelRule("level", lambda level, meta, top: level)
ONE_DOWN = LevelRule("level - 1", lambda level, meta, top: level - 1)
#: ``mod_drop`` by ``levels <= 0`` is a copy on every evaluator.
DROPPED = LevelRule(
    'level - meta["levels"]',
    lambda level, meta, top: level - max(int(meta["levels"]), 0))
MAX_LEVEL = LevelRule("max_level", lambda level, meta, top: top)
ASKED_LEVEL = LevelRule("as the program asked",
                        lambda level, meta, top: None)

KEEP_SCALE = ScaleRule("keep", lambda scales, params, level: scales[0])
MAX_SCALE = ScaleRule("max", lambda scales, params, level: max(scales))
#: ct x ct, ct x plaintext operand, or (a single scale) a square.
PRODUCT_SCALE = ScaleRule(
    "product", lambda scales, params, level: scales[0] * scales[-1])
RESCALED_SCALE = ScaleRule(
    "scale / q_level",
    lambda scales, params, level: scales[0] / params.moduli[level])
RESET_SCALE = ScaleRule("Delta", lambda scales, params, level: params.scale)


@dataclass(frozen=True)
class OpSpec:
    """Everything the trace stack knows about one op kind."""

    kind: OpKind
    #: Evaluator method that applies the op.  ``None``: no evaluator
    #: call (the caller supplies a source, a copy is ``.copy()``).
    method: str | None
    #: Ciphertext inputs, the method's leading parameters.
    arity: int
    #: Block the op lowers to, and its node-id stem; ``None`` for
    #: plumbing, which lowering routes through.
    block: BlockType | None = None
    stem: str = ""
    #: The parameters that follow, recorded in ``meta`` under the same
    #: names (JSON-safe scalars) and read back from there by replay.
    meta_args: tuple[str, ...] = ()
    #: The method takes an encoded plaintext ``pt`` instead, kept in
    #: ``trace.payloads``.
    payload: bool = False
    #: The method ends in ``rescale=True``: the call also applies the
    #: ``RESCALE`` row, and is recorded as the product and its
    #: ``RESCALE``.  ``rescale=False`` is recorded as
    #: ``meta["rescaled"] = False``, a declared manual rescale.
    fused_rescale: bool = False
    #: Id of the switching key the op streams, as a template over
    #: ``meta`` (``None``: no key switch).
    key: str | None = None
    #: The method takes keyword-only ``relinearize=`` (default True).
    #: ``relinearize=False`` skips the key switch and returns the
    #: degree-2 product, recorded as ``meta["relinearized"] = False``:
    #: such an op switches no key (:func:`switches_key`).
    relinearize: bool = False
    #: A ``meta`` list the op runs over (``None``: a single op): one key
    #: per entry, the entry filling the template under the list's own
    #: name, and one block per key, summed onto the input.
    group: str | None = None
    level: LevelRule = SAME_LEVEL
    scale: ScaleRule = KEEP_SCALE
    #: The :class:`TraceOp` field that is the lowered block's level.
    block_level: str = "level"
    #: Replays on a :class:`~repro.fhe.evaluator.CkksEvaluator`.
    real: bool = True


_K, _B = OpKind, BlockType

OPS: dict[OpKind, OpSpec] = {spec.kind: spec for spec in (
    OpSpec(_K.SCALAR_ADD, "scalar_add", 1, _B.SCALAR_ADD, "sadd",
           meta_args=("value",)),
    OpSpec(_K.SCALAR_MULT, "scalar_mult", 1, _B.SCALAR_MULT, "scalar",
           meta_args=("value",), fused_rescale=True, scale=PRODUCT_SCALE),
    OpSpec(_K.SCALAR_MULT_INT, "scalar_mult_int", 1, _B.SCALAR_MULT,
           "scalar", meta_args=("value",)),
    OpSpec(_K.POLY_ADD, "poly_add", 1, _B.POLY_ADD, "padd", payload=True),
    OpSpec(_K.POLY_MULT, "poly_mult", 1, _B.POLY_MULT, "pmul",
           payload=True, fused_rescale=True, scale=PRODUCT_SCALE),
    OpSpec(_K.HE_ADD, "he_add", 2, _B.HE_ADD, "add", scale=MAX_SCALE),
    OpSpec(_K.HE_SUB, "he_sub", 2, _B.HE_ADD, "sub", scale=MAX_SCALE),
    # An unrelinearized product still lowers to the HEMult block.
    OpSpec(_K.HE_MULT, "he_mult", 2, _B.HE_MULT, "mult",
           fused_rescale=True, key="relin", relinearize=True,
           scale=PRODUCT_SCALE),
    OpSpec(_K.HE_SQUARE, "he_square", 1, _B.HE_MULT, "mult",
           fused_rescale=True, key="relin", relinearize=True,
           scale=PRODUCT_SCALE),
    OpSpec(_K.HE_ROTATE, "he_rotate", 1, _B.HE_ROTATE, "rot",
           meta_args=("rotation",), key="rot-{rotation}"),
    # ct + sum_r rot_r(ct): one hoist, one ModDown per component.
    OpSpec(_K.ROTATE_ADD, "rotate_add", 1, _B.HE_ROTATE, "rot",
           meta_args=("rotations",), key="rot-{rotations}",
           group="rotations"),
    OpSpec(_K.CONJUGATE, "he_conjugate", 1, _B.HE_ROTATE, "conj",
           key="conj"),
    OpSpec(_K.RESCALE, "rescale", 1, _B.HE_RESCALE, "rescale",
           level=ONE_DOWN, scale=RESCALED_SCALE),
    # MOD_RAISE works over the full chain: its block sits at the raised
    # level, not at the level-0 input.
    OpSpec(_K.MOD_RAISE, "mod_raise", 1, _B.MOD_RAISE, "modraise",
           level=MAX_LEVEL, block_level="out_level", real=False),
    OpSpec(_K.SOURCE, None, 0),
    OpSpec(_K.MOD_DROP, "mod_drop", 1, meta_args=("levels",),
           level=DROPPED),
    OpSpec(_K.COPY, None, 1),
    # refresh(ct, level): the one parameter no trace records.
    OpSpec(_K.REFRESH, "refresh", 1, level=ASKED_LEVEL, scale=RESET_SCALE,
           real=False),
)}


# -- the rules over a spec ---------------------------------------------------

def expected_out_level(spec: OpSpec, level: int, meta: Mapping[str, Any],
                       max_level: int) -> int | None:
    """Level an op at operating level ``level`` must produce (``None``:
    the table has no expectation)."""
    return spec.level.apply(level, meta, max_level)


def out_scale(spec: OpSpec, params: CkksParameters, level: int,
              scales: Sequence[float]) -> float:
    """Scale of the result; ``scales`` as :class:`ScaleRule` takes them."""
    return spec.scale.apply(scales, params, level)


def switches_key(spec: OpSpec, meta: Mapping[str, Any]) -> bool:
    """Whether the op key-switches: its kind has a key, and it is not a
    product recorded with ``meta["relinearized"] = False``.

    The one rule: :func:`key_ids`, the recorder, replay's key draw, the
    linter, validation and :func:`fused_rescales` read it."""
    return spec.key is not None and not (
        spec.relinearize and meta.get("relinearized") is False)


def key_ids(spec: OpSpec, meta: Mapping[str, Any]) -> tuple[str, ...]:
    """Ids of every switching key the op streams, one per block it lowers
    to (empty: no key switch, :func:`switches_key`)."""
    if spec.key is None or not switches_key(spec, meta):
        return ()
    if spec.group is None:
        return (spec.key.format_map(meta),)
    return tuple(spec.key.format_map({**meta, spec.group: entry})
                 for entry in meta[spec.group])


def key_id(spec: OpSpec, meta: Mapping[str, Any]) -> str | None:
    """The key id a trace op records: :func:`key_ids` joined by ``,``
    (``None``: no key switch)."""
    return ",".join(key_ids(spec, meta)) or None


def keyswitch_meta(params: CkksParameters, level: int) -> dict[str, int]:
    """Key-switch shape at ``level`` (hybrid decomposition)."""
    return {"dnum": params.dnum, "digits": params.digits_at(level)}


def structural_problems(op: TraceOp, position: int) -> list[str]:
    """What makes the op at ``position`` unreadable to every data-flow
    check and to its own replay: an id out of sequence, a dangling
    input, a wrong input count, a missing ``meta_args`` key, a group
    that is not a list (what its amounts may be is :func:`check`'s)."""
    spec = OPS[op.kind]
    problems = []
    if op.op_id != position:
        problems.append(f"op_id {op.op_id} at position {position}; ids "
                        "must be dense and ordered")
    for input_id in op.inputs:
        if not 0 <= input_id < position:
            problems.append(f"input {input_id} does not reference an "
                            "earlier op")
    if len(op.inputs) != spec.arity:
        problems.append(f"{op.kind.value} op has inputs {op.inputs}; it "
                        f"takes {spec.arity}")
    for key in spec.meta_args:
        if key not in op.meta:
            problems.append(f"{op.kind.value} op carries no meta[{key!r}]")
    if spec.group in op.meta and not isinstance(op.meta[spec.group], list):
        problems.append(f"{op.kind.value} op's meta[{spec.group!r}] is "
                        "not a list")
    return problems


def galois_groups(trace: OpTrace) -> dict[int, tuple[int, ...]]:
    """Each value two or more ``he_rotate`` / ``conjugate`` ops read,
    mapped to those ops' ids in op order.

    The one decision about hoisting: a group shares one Decomp+ModUp of
    its value's c1, which replay raises at the group's first op.  A
    ``rotate_add`` is a group of its own and joins none.
    """
    readers: dict[int, list[int]] = {}
    for op in trace.ops:
        if op.kind in (OpKind.HE_ROTATE, OpKind.CONJUGATE) \
                and len(op.inputs) == 1:
            readers.setdefault(op.inputs[0], []).append(op.op_id)
    return {value: tuple(ops) for value, ops in readers.items()
            if len(ops) > 1}


def fused_rescales(trace: OpTrace) -> dict[int, int]:
    """Each key-switching product (``he_mult`` / ``he_square``,
    :func:`switches_key`) whose value exactly one op reads, a
    ``rescale``, mapped to that rescale's id; a product that is the
    trace's output is never fused, and neither is an unrelinearized one
    (it has no ModDown to fuse with).

    The one decision about fusing ModDown with rescale: replay runs the
    product with ``rescale=True`` — one division by P * q_l, bit for bit
    the two ops — and binds the result to the rescale's id; the
    unrescaled product is never made.
    """
    readers: dict[int, list[TraceOp]] = {}
    for op in trace.ops:
        for input_id in set(op.inputs):
            readers.setdefault(input_id, []).append(op)
    fused: dict[int, int] = {}
    for op in trace.ops:
        spec = OPS[op.kind]
        reads = readers.get(op.op_id, [])
        if (spec.fused_rescale and switches_key(spec, op.meta)
                and op.op_id != trace.output_op_id and len(reads) == 1
                and reads[0].kind is OpKind.RESCALE):
            fused[op.op_id] = reads[0].op_id
    return fused


# -- the one precondition ----------------------------------------------------

#: Relative scale mismatch an addition tolerates: above the ~2^-29 error
#: of a mult-by-one scale adjustment rounded near q ~ 2^30.
SCALE_TOLERANCE = 1e-7
#: A declared ``rescale=False`` region ends where a rescale or refresh
#: lands within this many bits of Delta (toy rescales drift ~1 bit each).
RESCALE_DRIFT_TOLERANCE_LOG2 = 4.0
#: The kinds the rules below name, bound once: an ``OpKind.X`` lookup
#: takes ~0.1 us, and the rules run on every op.
_RESCALE, _REFRESH, _MOD_DROP, _POLY_ADD = (
    OpKind.RESCALE, OpKind.REFRESH, OpKind.MOD_DROP, OpKind.POLY_ADD)


class Refusal(ValueError):
    """A refused call, with the lint code that reports it."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def require_relinearized(name: str | None, *cts: Any) -> None:
    """HE023: only rescale and decryption read a degree-2 ciphertext."""
    if not all(ct.relinearized for ct in cts):
        raise Refusal(
            "HE023", f"{name} takes a relinearized ciphertext; this one is "
            "a product made with relinearize=False, which can only be "
            "rescaled and decrypted")


def check(spec: OpSpec, cts: Sequence[Any], operands: Sequence[Any],
          params: CkksParameters, rescale: bool | None) -> None:
    """Refuse a call of ``spec``'s row before any work, raising a
    :class:`Refusal` under its code: HE023 an operand not relinearized
    (any row but ``RESCALE``); HE001 a rescale, fused or not, at level 0,
    or a ``mod_drop`` below it; HE011 additive scales (``poly_add``'s
    plaintext too) more than :data:`SCALE_TOLERANCE` apart outside a
    declared region (which no real ciphertext is in); HE020
    ``rotate_add`` amounts empty or zero mod ``num_slots``."""
    kind, level = spec.kind, cts[0].level if cts else 0
    for ct in cts:
        if not ct.relinearized and kind is not _RESCALE:
            require_relinearized(spec.method or kind.value, ct)
        level = min(level, ct.level)
    if (rescale or kind is _RESCALE) and level <= 0:
        raise Refusal("HE001", "cannot rescale at level 0")
    if kind is _MOD_DROP and level - operands[0] < 0:
        raise Refusal("HE001", "cannot drop below level 0")
    if spec.scale is MAX_SCALE or kind is _POLY_ADD:
        first = cts[0].scale
        second = (operands[0] if spec.payload else cts[1]).scale
        if abs(first - second) > SCALE_TOLERANCE * max(first, second) \
                and not any(getattr(ct, "manual_scale", False)
                            for ct in cts):
            raise Refusal("HE011", f"scale mismatch: {first:.6g} vs "
                          f"{second:.6g}; rescale or re-encode first")
    if spec.group is not None:
        amounts = [r % params.num_slots for r in operands[0]]
        if not amounts or 0 in amounts:
            raise Refusal(
                "HE020", f"{spec.method} takes rotation amounts that are "
                f"non-zero mod {params.num_slots}, got {amounts} after "
                "reduction")


def handle_flags(spec: OpSpec, cts: Sequence[Any], rescale: bool | None,
                 relinearize: bool, scale: float, params: CkksParameters
                 ) -> tuple[bool, bool]:
    """``(relinearized, manual_scale)`` of what a call of ``spec`` makes
    from ``cts`` at ``scale``, as symbolic handles carry it and the
    linter rebuilds it: a ``relinearize=False`` product and its rescales
    are degree 2; ``rescale=False`` declares a region, which ends where
    a rescale or refresh lands within the drift tolerance of Delta."""
    relinearized = cts[0].relinearized if spec.kind is _RESCALE \
        else relinearize or not spec.relinearize
    if rescale is False:
        return relinearized, True
    if not any([ct.manual_scale for ct in cts]):
        return relinearized, False
    landed = spec.kind in (_RESCALE, _REFRESH) and scale > 0 \
        and abs(math.log2(scale) - params.scale_bits) \
        <= RESCALE_DRIFT_TOLERANCE_LOG2
    return relinearized, not landed


# -- the evaluator call surface ----------------------------------------------

#: The only defaults on the call surface.
_DEFAULTS = {"rescale": True, "levels": 1}


def install_methods(cls: type, specs: Iterable[OpSpec]) -> None:
    """Give ``cls`` the evaluator method of every row in ``specs`` it does
    not define itself, as ``method(*cts, *operands[, rescale][, *,
    relinearize])`` forwarding to ``cls._apply(spec, cts, operands,
    rescale, relinearize)`` (``rescale`` is ``None`` where the op fuses
    none, ``relinearize`` True where the op takes no such keyword).
    Operands and ``rescale`` bind by position or by name,
    ``relinearize`` by name only."""
    for spec in specs:
        if spec.method is not None and spec.method not in vars(cls):
            setattr(cls, spec.method, _method(spec, spec.method))


def _method(spec: OpSpec, name: str) -> Callable[..., Any]:
    names = spec.meta_args + ("pt",) * spec.payload \
        + ("rescale",) * spec.fused_rescale
    arity, fused = spec.arity, spec.fused_rescale

    def method(self: Any, *args: Any, **kwargs: Any) -> Any:
        relinearize = kwargs.pop("relinearize", True) \
            if spec.relinearize else True
        if kwargs or len(args) != arity + len(names):
            args = _bind(name, arity, names, args, kwargs)
        if fused:
            return self._apply(spec, args[:arity], args[arity:-1], args[-1],
                               relinearize)
        return self._apply(spec, args[:arity], args[arity:], None,
                           relinearize)

    method.__name__ = name
    return method


def _bind(name: str, arity: int, names: tuple[str, ...],
          args: tuple[Any, ...], kwargs: dict[str, Any]) -> tuple[Any, ...]:
    """``args`` completed from ``kwargs`` and the surface's defaults."""
    rest = list(args[arity:])
    for missing in names[len(rest):]:
        if missing in kwargs:
            rest.append(kwargs.pop(missing))
        elif missing in _DEFAULTS:
            rest.append(_DEFAULTS[missing])
    if kwargs or len(args) < arity or len(rest) != len(names):
        raise TypeError(f"{name}() takes {arity} ciphertext(s) then "
                        f"{names}; got {args} {kwargs}")
    return args[:arity] + tuple(rest)


# -- the table, rendered -----------------------------------------------------

def render_table() -> str:
    """:data:`OPS` as the markdown table ``README.md`` carries."""
    header = ("kind", "evaluator method", "cts", "then (from `meta`)",
              "plaintext operand", "fused `rescale=`", "key", "out level",
              "out scale", "block", "replays")
    rows = [header, ("---",) * len(header)]
    for spec in OPS.values():
        operand = "`trace.payloads`" if spec.payload else \
            '`meta["value"]`' if "value" in spec.meta_args else "—"
        block = "—" if spec.block is None else \
            f"{spec.block.value}, `{spec.stem}N` at `{spec.block_level}`"
        rows.append((
            f"`{spec.kind.value}`",
            f"`{spec.method}`" if spec.method else "—", str(spec.arity),
            ", ".join(f"`{a}`" for a in spec.meta_args) or "—", operand,
            "yes" if spec.fused_rescale else "—",
            (f"`{spec.key}`" if spec.key else "—")
            + (f" per `{spec.group}` entry" if spec.group else "")
            + (" unless `relinearize=False`" if spec.relinearize else ""),
            spec.level.name,
            spec.scale.name, block,
            "yes" if spec.real else "symbolic only"))
    return "\n".join("| " + " | ".join(row) + " |" for row in rows)
