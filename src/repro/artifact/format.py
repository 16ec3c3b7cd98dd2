"""The ``.rpa`` container format: magic, block framing, and integrity.

An ``.rpa`` (Repro Plan Artifact) file is a magic header followed by a
sequence of typed, length-prefixed, CRC'd blocks::

    offset  size  field
    ------  ----  -----------------------------------------------
    0       8     magic  b"\\x89RPA\\r\\n\\x1a\\n"
    8       2     container version (u16 LE)
    10      ...   blocks, back to back until EOF

    each block:
    +0      2     block type (u16 LE, :class:`ArtifactBlockType`)
    +2      2     flags (u16 LE, reserved, must be 0)
    +4      8     payload length (u64 LE)
    +12     len   payload
    +12+len 4     CRC32 of the payload (u32 LE)

Readers skip blocks whose type they do not recognize (with an
:class:`UnknownBlockWarning`) instead of failing — the graceful inverse
of fst_spec's ``_unsupported_block_handler`` — so old readers survive
new block types; a *container* version bump, by contrast, is a breaking
framing change and loading fails with a clear error.

Two payload encodings are provided: :func:`pack_json`/:func:`unpack_json`
(zlib-compressed canonical JSON, for the header and provenance blocks)
and :func:`pack_arrays`/:func:`unpack_arrays` (a zlib-compressed JSON
index plus raw little-endian array bytes, for the columnar trace and
payload tables).  Both are byte-deterministic for equal inputs, so
regenerating an unchanged golden-corpus artifact rewrites identical
bytes.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import struct
import zlib
from typing import Any, BinaryIO

import numpy as np

from repro.fhe.params import CkksParameters

#: File magic (PNG-style: high bit, name, CRLF/LF corruption canaries).
MAGIC = b"\x89RPA\r\n\x1a\n"

#: Container framing version.  Bumped only on breaking changes to the
#: magic/frame layout; new *block types* do not bump it (readers skip
#: unknown blocks).
CONTAINER_VERSION = 1

#: Schema version of the columnar trace tables, stamped into HEADER as
#: ``schema_version``; readers refuse newer schemas.  Version 2 dropped
#: the per-op hoist-group and ``meta_hoisted`` columns; the decoder reads
#: only the columns it names, so version 1 files still load, and reads
#: their ``hoist`` rows as copies.
TRACE_FORMAT_VERSION = 2

_VERSION_STRUCT = struct.Struct("<H")
_FRAME_STRUCT = struct.Struct("<HHQ")
_CRC_STRUCT = struct.Struct("<I")

#: Hard ceiling on a single block payload (corrupted length fields must
#: not trigger multi-GB allocations before the truncation check fires).
MAX_BLOCK_PAYLOAD = 1 << 34


class ArtifactBlockType(enum.IntEnum):
    """Typed blocks an ``.rpa`` container may carry.

    The reader's handler registry (:mod:`repro.artifact.reader`) maps
    these to decoders; ids are append-only (never renumber a shipped
    block type).
    """

    HEADER = 1       #: JSON: versions, name, params, fingerprint, counts
    TRACE_OPS = 2    #: columnar OpTrace tables
    # 3 is retired (it held the lowered block graph, which load_plan
    # lowers from TRACE_OPS); never reuse it.
    PROVENANCE = 4   #: JSON: pass pipeline + producing tool
    PAYLOADS = 5     #: columnar plaintext payloads (real-mode replay)


class ArtifactError(ValueError):
    """Base class for every artifact read/write failure."""


class ArtifactFormatError(ArtifactError):
    """The file is not an ``.rpa`` container (bad magic / bad frame)."""


class ArtifactVersionError(ArtifactError):
    """The container was written by a newer, incompatible format."""


class ArtifactIntegrityError(ArtifactError):
    """A block is truncated or fails its CRC check."""


class UnknownBlockWarning(UserWarning):
    """A recognized container carried a block type this reader skips."""


def block_name(block_type: int) -> str:
    """Display name for a block type (``type-N`` for unknown ids)."""
    try:
        return ArtifactBlockType(block_type).name
    except ValueError:
        return f"type-{block_type}"


# ---------------------------------------------------------------------------
# frame writer / reader
# ---------------------------------------------------------------------------

def write_container(stream: BinaryIO,
                    blocks: list[tuple[int, bytes]]) -> None:
    """Write magic + version + every ``(block_type, payload)`` frame."""
    stream.write(MAGIC)
    stream.write(_VERSION_STRUCT.pack(CONTAINER_VERSION))
    for block_type, payload in blocks:
        stream.write(_FRAME_STRUCT.pack(int(block_type), 0, len(payload)))
        stream.write(payload)
        stream.write(_CRC_STRUCT.pack(zlib.crc32(payload)))


def read_container(stream: BinaryIO,
                   where: str = "artifact") -> list[tuple[int, bytes]]:
    """Read every block frame, verifying magic, version, and CRCs.

    Returns ``[(block_type, payload), ...]`` in file order (unknown
    block *types* are returned too — dispatching and skipping is the
    reader's job, framing integrity is this function's).
    """
    magic = stream.read(len(MAGIC))
    if magic != MAGIC:
        raise ArtifactFormatError(
            f"{where}: not an .rpa artifact (bad magic "
            f"{magic[:8]!r}; expected {MAGIC!r})")
    version_bytes = stream.read(_VERSION_STRUCT.size)
    if len(version_bytes) < _VERSION_STRUCT.size:
        raise ArtifactIntegrityError(f"{where}: truncated before the "
                                     "container version field")
    (version,) = _VERSION_STRUCT.unpack(version_bytes)
    if not 1 <= version <= CONTAINER_VERSION:
        raise ArtifactVersionError(
            f"{where}: container format version {version} is not one this "
            f"reader knows (1..{CONTAINER_VERSION}); if it is newer, "
            "upgrade repro to read it")
    blocks: list[tuple[int, bytes]] = []
    index = 0
    while True:
        frame = stream.read(_FRAME_STRUCT.size)
        if not frame:
            return blocks
        if len(frame) < _FRAME_STRUCT.size:
            raise ArtifactIntegrityError(
                f"{where}: block {index}: truncated block header "
                f"({len(frame)} of {_FRAME_STRUCT.size} bytes)")
        block_type, flags, payload_len = _FRAME_STRUCT.unpack(frame)
        label = f"{where}: block {index} ({block_name(block_type)})"
        if flags != 0:
            raise ArtifactFormatError(f"{label}: reserved flags field is "
                                      f"{flags:#x} (must be 0)")
        if payload_len > MAX_BLOCK_PAYLOAD:
            raise ArtifactIntegrityError(
                f"{label}: implausible payload length {payload_len}")
        payload = stream.read(payload_len)
        if len(payload) < payload_len:
            raise ArtifactIntegrityError(
                f"{label}: truncated payload ({len(payload)} of "
                f"{payload_len} bytes)")
        crc_bytes = stream.read(_CRC_STRUCT.size)
        if len(crc_bytes) < _CRC_STRUCT.size:
            raise ArtifactIntegrityError(f"{label}: truncated CRC field")
        (crc,) = _CRC_STRUCT.unpack(crc_bytes)
        actual = zlib.crc32(payload)
        if crc != actual:
            raise ArtifactIntegrityError(
                f"{label}: CRC mismatch (stored {crc:#010x}, computed "
                f"{actual:#010x})")
        blocks.append((block_type, payload))
        index += 1


# ---------------------------------------------------------------------------
# payload encodings
# ---------------------------------------------------------------------------

def pack_json(doc: dict[str, Any]) -> bytes:
    """Compress a JSON document (compact separators, sorted keys, so
    equal documents yield equal bytes regardless of insertion order)."""
    raw = json.dumps(doc, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return zlib.compress(raw, 6)


def unpack_json(payload: bytes, where: str = "block") -> dict[str, Any]:
    try:
        doc = json.loads(zlib.decompress(payload).decode("utf-8"))
    except (zlib.error, ValueError, RecursionError) as exc:
        raise ArtifactFormatError(f"{where}: undecodable JSON payload "
                                  f"({exc})") from None
    if not isinstance(doc, dict):
        raise ArtifactFormatError(f"{where}: JSON payload is not an "
                                  "object")
    return doc


_INDEX_LEN = struct.Struct("<I")

#: Dtypes the array encoding accepts (explicit endianness on the wire;
#: single-byte dtypes are endianness-free and spelled ``|``).
_WIRE_DTYPES = ("|i1", "|u1", "<i2", "<i4", "<i8", "<f8")


def pack_arrays(scalars: dict[str, Any],
                arrays: dict[str, "np.ndarray[Any, Any]"]) -> bytes:
    """Pack JSON scalars + named 1-D arrays into one compressed payload.

    Arrays are stored as raw little-endian bytes after a JSON index of
    ``{name, dtype, length}`` records; the whole payload is
    zlib-compressed.  Deterministic: equal inputs yield equal bytes.
    """
    index: dict[str, Any] = {"scalars": scalars, "arrays": []}
    chunks: list[bytes] = []
    for name, array in arrays.items():
        if array.ndim != 1:
            raise ArtifactError(f"array {name!r} must be 1-D")
        dtype = array.dtype.newbyteorder("<").str
        if dtype not in _WIRE_DTYPES:
            raise ArtifactError(
                f"array {name!r} has unsupported wire dtype {dtype!r}")
        data = np.ascontiguousarray(array.astype(dtype,
                                                 copy=False)).tobytes()
        index["arrays"].append({"name": name, "dtype": dtype,
                                "length": int(array.shape[0])})
        chunks.append(data)
    index_bytes = json.dumps(index, separators=(",", ":")).encode("utf-8")
    inner = b"".join([_INDEX_LEN.pack(len(index_bytes)), index_bytes,
                      *chunks])
    return zlib.compress(inner, 6)


def unpack_arrays(payload: bytes, where: str = "block"
                  ) -> tuple[dict[str, Any],
                             dict[str, "np.ndarray[Any, Any]"]]:
    """Inverse of :func:`pack_arrays`; a malformed index is an
    :class:`ArtifactFormatError`, never a bare exception."""
    try:
        inner = zlib.decompress(payload)
    except zlib.error as exc:
        raise ArtifactFormatError(f"{where}: undecodable array payload "
                                  f"({exc})") from None
    if len(inner) < _INDEX_LEN.size:
        raise ArtifactFormatError(f"{where}: array payload too short")
    (index_len,) = _INDEX_LEN.unpack_from(inner, 0)
    start = _INDEX_LEN.size
    try:
        index = json.loads(inner[start:start + index_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ArtifactFormatError(f"{where}: undecodable array index "
                                  f"({exc})") from None
    if not (isinstance(index, dict) and isinstance(index.get("scalars"), dict)
            and isinstance(index.get("arrays"), list)):
        raise ArtifactFormatError(f"{where}: array index is not an object "
                                  "of scalars and an array list")
    offset = start + index_len
    arrays: dict[str, np.ndarray[Any, Any]] = {}
    for entry in index["arrays"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and entry.get("dtype") in _WIRE_DTYPES
                and type(entry.get("length")) is int and entry["length"] >= 0):
            raise ArtifactFormatError(f"{where}: malformed array index "
                                      f"entry {str(entry)[:80]}")
        dtype = np.dtype(entry["dtype"])
        nbytes = dtype.itemsize * entry["length"]
        if offset + nbytes > len(inner):
            raise ArtifactFormatError(
                f"{where}: array {entry['name']!r} runs past the "
                "payload end")
        arrays[entry["name"]] = np.frombuffer(
            inner[offset:offset + nbytes], dtype=dtype).copy()
        offset += nbytes
    return index["scalars"], arrays


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def params_fingerprint(params: CkksParameters) -> str:
    """Short stable digest of a full parameter set (moduli included)."""
    doc = dataclasses.asdict(params)
    raw = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def content_fingerprint(name: str, params: CkksParameters,
                        counts: dict[str, int]) -> str:
    """Short identity digest for one compiled artifact.

    Covers the workload name, the full parameter set, and the structural
    counts — the id the serving layer logs so a fleet of workers can
    assert they loaded the same compiled plan.
    """
    doc = {"name": name, "params": params_fingerprint(params),
           "counts": {k: counts[k] for k in sorted(counts)}}
    raw = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]
