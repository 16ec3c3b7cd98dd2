"""Columnar encodings of the trace and the payloads.

A row-per-op text form spends ~200 bytes of punctuation and repeated key
names per op; these tables store each :class:`~repro.trace.ir.TraceOp`
field as one typed column (interned string tables for kinds / keys /
regions, CSR layout for the variable-length input lists) and push only
the *irregular* residue — scalar operand values, slot-window
annotations, forward-compatible unknown meta keys — through a
tagged-JSON side channel.  The round trip is exact:
``decode(encode(trace)) == trace`` field for field, including meta dicts
(dict equality is order-free).

The same pattern serializes the optional plaintext payload table that
real-mode :meth:`~repro.engine.ExecutablePlan.execute` replay needs.
No block graph is stored: it is a pure function of the trace, and
:func:`repro.artifact.reader.load_plan` lowers it again.  Decoders check
a block against this schema before indexing anything (:func:`_scalars`,
:func:`_columns`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.fhe.encoder import Plaintext
from repro.fhe.params import CkksParameters
from repro.fhe.poly import coeff_array
from repro.fhe.rns import WORD_BOUND
from repro.trace.ir import OpTrace, TraceOp

from .format import (ArtifactError, ArtifactFormatError, pack_arrays,
                     unpack_arrays)

#: Meta keys stored as typed columns; everything else (scalar ``value``
#: operands, ``slot_windows`` annotations, future keys) rides in the
#: tagged-JSON residual channel.  Each entry: (dtype, sentinel-absent).
_META_INT_COLUMNS: dict[str, tuple[str, int]] = {
    "dnum": ("<i2", -1),
    "digits": ("<i2", -1),
    "rotation": ("<i8", -1),
    "levels": ("<i4", -1),
}
#: Boolean meta columns: -1 absent, 0 False, 1 True.
_META_BOOL_COLUMNS = ("rescaled",)


class _Interner:
    """Intern strings into a stable table; index -1 encodes None."""

    def __init__(self) -> None:
        self.table: list[str] = []
        self._index: dict[str, int] = {}

    def add(self, value: str | None) -> int:
        if value is None:
            return -1
        idx = self._index.get(value)
        if idx is None:
            idx = len(self.table)
            self.table.append(value)
            self._index[value] = idx
        return idx


def _meta_to_json(value: Any) -> Any:
    """Tag the one non-JSON meta scalar (complex) for the residual."""
    if isinstance(value, complex):
        return {"__complex__": [value.real, value.imag]}
    return value


def _meta_from_json(value: Any, where: str) -> Any:
    if not (isinstance(value, dict) and "__complex__" in value):
        return value
    try:
        real, imag = value["__complex__"]
        return complex(real, imag)
    except (TypeError, ValueError):
        raise ArtifactFormatError(f"{where}: malformed complex meta "
                                  "value") from None


# ---------------------------------------------------------------------------
# the check every decoder runs before it indexes anything
# ---------------------------------------------------------------------------

def _scalars(scalars: dict[str, Any], where: str, *names: str) -> list[Any]:
    """The named scalars, each checked: ``num_*`` is a row count,
    ``meta_residual`` a map of objects, any other an interned table."""
    out = []
    for name in names:
        value = scalars.get(name, {} if name == "meta_residual" else None)
        if name.startswith("num_"):
            what, ok = "a row count", type(value) is int and value >= 0
        elif name == "meta_residual":
            what, ok = "a map of objects", isinstance(value, dict) and all(
                isinstance(entry, dict) for entry in value.values())
        else:
            what, ok = "a list of strings", isinstance(value, list) and all(
                isinstance(entry, str) for entry in value)
        if not ok:
            raise ArtifactFormatError(f"{where}: scalar {name!r} is not "
                                      f"{what}")
        out.append(value)
    return out


def _columns(arrays: dict[str, np.ndarray[Any, Any]], where: str,
             spec: dict[str, tuple[str, int | None, range | str | None]]
             ) -> dict[str, np.ndarray[Any, Any]]:
    """Check and return the columns ``spec`` names.

    ``spec`` gives a column's wire dtype, its row count (``None``: any)
    and what its values index: a ``range`` they lie in, or the column
    they are CSR offsets into (monotone from 0 to its length; list that
    column first).  One vectorized bound check per column.
    """
    for name, (dtype, rows, target) in spec.items():
        column = arrays.get(name)
        if column is None:
            raise ArtifactFormatError(f"{where}: missing column {name!r}")
        if column.dtype.str != dtype or rows not in (None, len(column)):
            raise ArtifactFormatError(
                f"{where}: column {name!r} is {len(column)} x "
                f"{column.dtype.str}, expected {rows} x {dtype}")
        if isinstance(target, str):
            inside = (column[0] == 0 and column[-1] == len(arrays[target])
                      and not (np.diff(column) < 0).any())
        else:
            inside = target is None or not column.size or (
                target.start <= column.min() and column.max() < target.stop)
        if not inside:
            raise ArtifactFormatError(f"{where}: column {name!r} holds an "
                                      f"index outside {target}")
    return {name: arrays[name] for name in spec}


def _column_encodable(key: str, value: Any) -> bool:
    """Can ``value`` take the typed column for ``key`` losslessly?"""
    if key in _META_BOOL_COLUMNS:
        return type(value) is bool
    dtype, sentinel = _META_INT_COLUMNS[key]
    if type(value) is not int:
        return False
    info = np.iinfo(np.dtype(dtype))
    return info.min <= value <= info.max and value != sentinel


# ---------------------------------------------------------------------------
# trace ops
# ---------------------------------------------------------------------------

def encode_trace_ops(trace: OpTrace) -> bytes:
    """Columnar tables for one op stream (everything but payloads)."""
    ops = trace.ops
    n = len(ops)
    kinds = _Interner()
    keys = _Interner()
    regions = _Interner()

    kind_idx = np.empty(n, dtype=np.int16)
    level = np.empty(n, dtype=np.int32)
    out_level = np.empty(n, dtype=np.int32)
    out_scale = np.empty(n, dtype=np.float64)
    key_idx = np.empty(n, dtype=np.int32)
    region_idx = np.empty(n, dtype=np.int32)
    input_offsets = np.zeros(n + 1, dtype=np.int64)
    flat_inputs: list[int] = []
    meta_cols = {key: np.full(n, sentinel, dtype=dtype)
                 for key, (dtype, sentinel) in _META_INT_COLUMNS.items()}
    meta_bools = {key: np.full(n, -1, dtype=np.int8)
                  for key in _META_BOOL_COLUMNS}
    residual: dict[str, dict[str, Any]] = {}

    for i, op in enumerate(ops):
        if op.op_id != i:
            raise ArtifactError(
                f"op at index {i} has op_id {op.op_id}; only dense, "
                "ordered traces (the engine's normalized form) are "
                "serializable")
        kind_idx[i] = kinds.add(op.kind.value)
        level[i] = op.level
        out_level[i] = op.out_level
        out_scale[i] = op.out_scale
        key_idx[i] = keys.add(op.key)
        region_idx[i] = regions.add(op.region if op.region else None)
        flat_inputs.extend(op.inputs)
        input_offsets[i + 1] = len(flat_inputs)
        leftover: dict[str, Any] = {}
        for meta_key, meta_value in op.meta.items():
            if meta_key in _META_BOOL_COLUMNS and \
                    _column_encodable(meta_key, meta_value):
                meta_bools[meta_key][i] = int(meta_value)
            elif meta_key in _META_INT_COLUMNS and \
                    _column_encodable(meta_key, meta_value):
                meta_cols[meta_key][i] = meta_value
            else:
                leftover[meta_key] = _meta_to_json(meta_value)
        if leftover:
            residual[str(i)] = leftover

    arrays: dict[str, np.ndarray[Any, Any]] = {
        "kind": kind_idx, "level": level, "out_level": out_level,
        "out_scale": out_scale, "key": key_idx, "region": region_idx,
        "input_offsets": input_offsets,
        "inputs": np.asarray(flat_inputs, dtype=np.int64),
    }
    for name, column in meta_cols.items():
        arrays[f"meta_{name}"] = column
    for name, bcolumn in meta_bools.items():
        arrays[f"meta_{name}"] = bcolumn
    scalars = {"num_ops": n, "kinds": kinds.table, "keys": keys.table,
               "regions": regions.table, "meta_residual": residual}
    return pack_arrays(scalars, arrays)


def decode_trace_ops(payload: bytes, params: CkksParameters, name: str,
                     output_op_id: int | None,
                     where: str = "TRACE_OPS") -> OpTrace:
    """Rebuild the :class:`OpTrace` from its columnar tables."""
    from repro.trace.ir import OpKind
    scalars, arrays = unpack_arrays(payload, where)
    n, kinds, keys, regions, residual = _scalars(
        scalars, where, "num_ops", "kinds", "keys", "regions", "meta_residual")
    c = {k: v.tolist() for k, v in _columns(arrays, where, {
        "kind": ("<i2", n, range(len(kinds))),
        "level": ("<i4", n, None), "out_level": ("<i4", n, None),
        "out_scale": ("<f8", n, None),
        "key": ("<i4", n, range(-1, len(keys))),
        "region": ("<i4", n, range(-1, len(regions))),
        "inputs": ("<i8", None, range(n)),
        "input_offsets": ("<i8", n + 1, "inputs"),
        **{f"meta_{key}": (dtype, n, None)
           for key, (dtype, _) in _META_INT_COLUMNS.items()},
        **{f"meta_{key}": ("|i1", n, None) for key in _META_BOOL_COLUMNS},
    }).items()}
    if output_op_id is not None and not 0 <= output_op_id < n:
        raise ArtifactFormatError(f"{where}: output_op_id {output_op_id} "
                                  f"outside the {n} ops")
    # A ``hoist`` row (files written before replay derived hoisting)
    # reads as the copy of its input: its rotations then read one value.
    by_value = {kind.value: kind for kind in OpKind} | {"hoist": OpKind.COPY}
    flags = [(key, c[f"meta_{key}"]) for key in _META_BOOL_COLUMNS]
    ints = [(key, sentinel, c[f"meta_{key}"])
            for key, (_, sentinel) in _META_INT_COLUMNS.items()]
    offsets, inputs = c["input_offsets"], c["inputs"]

    trace = OpTrace(params=params, name=name, output_op_id=output_op_id)
    for i in range(n):
        kind = by_value.get(kinds[c["kind"][i]])
        if kind is None:
            raise ArtifactFormatError(
                f"{where}: op {i}: unknown op kind {kinds[c['kind'][i]]!r} "
                f"(known: {', '.join(by_value)})")
        meta: dict[str, Any] = {key: bool(flag[i])
                                for key, flag in flags if flag[i] != -1}
        meta.update((key, column[i]) for key, sentinel, column in ints
                    if column[i] != sentinel)
        for meta_key, tagged in residual.get(str(i), {}).items():
            meta[meta_key] = _meta_from_json(tagged, f"{where}: op {i}")
        key, region = c["key"][i], c["region"][i]
        trace.append(TraceOp(
            op_id=i, kind=kind,
            inputs=tuple(inputs[offsets[i]:offsets[i + 1]]),
            level=c["level"][i], out_level=c["out_level"][i],
            out_scale=c["out_scale"][i],
            key=None if key == -1 else keys[key],
            region="" if region == -1 else regions[region], meta=meta))
    return trace


# ---------------------------------------------------------------------------
# plaintext payloads (real-mode replay)
# ---------------------------------------------------------------------------

def _wire_column(op_id: int, coeffs: "np.ndarray[Any, Any] | list[int]"
                 ) -> np.ndarray[Any, Any]:
    """One plaintext's coefficients as the int64 column the wire holds."""
    column = coeff_array(coeffs)
    beyond = np.flatnonzero((column < -WORD_BOUND) | (column >= WORD_BOUND))
    if beyond.size:
        raise ArtifactError(
            f"payload for op {op_id}: coefficient {column[beyond[0]]} does "
            "not fit the int64 wire format")
    return column.astype(np.int64, copy=False)


def encode_payloads(payloads: dict[int, object]) -> bytes | None:
    """Pack the real :class:`Plaintext` payloads; ``None`` if there are
    none (symbolic traces carry shape-only handles, which replay never
    needs and which are not serialized).
    """
    rows = [(op_id, payload) for op_id, payload in sorted(payloads.items())
            if isinstance(payload, Plaintext)]
    if not rows:
        return None
    op_ids = np.array([op_id for op_id, _ in rows], dtype=np.int64)
    scales = np.array([pt.scale for _, pt in rows], dtype=np.float64)
    slots = np.array([pt.num_slots for _, pt in rows], dtype=np.int32)
    columns = [_wire_column(op_id, pt.coeffs) for op_id, pt in rows]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(column) for column in columns], out=offsets[1:])
    arrays: dict[str, np.ndarray[Any, Any]] = {
        "op_id": op_ids, "scale": scales, "num_slots": slots,
        "offsets": offsets, "coeffs": np.concatenate(columns),
    }
    return pack_arrays({"num_payloads": len(rows)}, arrays)


def decode_payloads(payload: bytes,
                    where: str = "PAYLOADS") -> dict[int, Plaintext]:
    """Rebuild the ``op_id -> Plaintext`` payload map."""
    scalars, arrays = unpack_arrays(payload, where)
    (n,) = _scalars(scalars, where, "num_payloads")
    columns = _columns(arrays, where, {
        "op_id": ("<i8", n, None), "scale": ("<f8", n, None),
        "num_slots": ("<i4", n, None), "coeffs": ("<i8", None, None),
        "offsets": ("<i8", n + 1, "coeffs")})
    offsets = columns["offsets"].tolist()
    coeffs = columns["coeffs"]          # every plaintext is a slice of it
    rows = zip(columns["op_id"].tolist(), columns["scale"].tolist(),
               columns["num_slots"].tolist())
    return {op_id: Plaintext(coeffs=coeffs[offsets[i]:offsets[i + 1]],
                             scale=scale, num_slots=num_slots)
            for i, (op_id, scale, num_slots) in enumerate(rows)}
