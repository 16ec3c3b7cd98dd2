"""Hostile bytes: the ``.rpa`` reader raises only ``ArtifactError``.

Every golden-corpus file is truncated at every offset, bit-flipped at
every byte within 16 of each block boundary, and rewritten with crafted
blocks whose CRCs are valid but whose contents lie: a missing column or
scalar, a scalar of the wrong type, an index outside its table, an input
that reads a later op, a modulus the parameters refuse.  Each must raise
an :class:`ArtifactError` subclass whose message names the block (or,
inside the 10-byte preamble, the magic / version field).  Nothing else
may escape, and nothing may load.

A ``hoist`` row of an old file reads as a copy: one that lies about its
input is refused like any other row, and one an ``he_add`` reads loads
as the valid copy it now is.  A row flagged ``rescaled`` True (a product
and its rescale in one op, as an old recorder wrote a ``rescale=True``
call) is refused naming the op.

``load_plan`` builds its plan the one way a plan is built, so a trace
that breaks a rule of the op table is refused naming TRACE_OPS and the
op, as ``engine.compile`` refuses it: a rescale that keeps its level, a
``rotate_add`` with no key id.
"""

import io
import pathlib
import re
import struct
import warnings
import zlib

import numpy as np
import pytest

import pins
from repro.artifact import (ArtifactBlockType, ArtifactError,
                            UnknownBlockWarning, corpus_path, load_plan,
                            read_artifact_stream)
from repro.artifact.columnar import encode_payloads
from repro.artifact.format import (MAGIC, pack_arrays, pack_json,
                                   read_container, unpack_arrays,
                                   unpack_json, write_container)
from repro.fhe import CkksParameters
from repro.fhe.encoder import Plaintext
from repro.trace.ir import OpKind
from repro.trace.ops import OPS

NAMES = ("boot", "helr", "resnet")
HEADER, TRACE_OPS, PAYLOADS = (
    int(ArtifactBlockType[name])
    for name in ("HEADER", "TRACE_OPS", "PAYLOADS"))
#: A message names the block it refuses — or the preamble field.
NAMED = re.compile(r"HEADER|TRACE_OPS|PROVENANCE|PAYLOADS|type-\d+"
                   r"|block \d+|magic|version")


def _corpus(name: str) -> bytes:
    return corpus_path(name).read_bytes()


def _read(data: bytes):
    # A flipped block-type id reads as a block from a newer writer.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnknownBlockWarning)
        return read_artifact_stream(io.BytesIO(data), "hostile.rpa")


def _refusal(data: bytes) -> str:
    """The message of the ``ArtifactError`` reading ``data`` raises; any
    other exception propagates and a successful load fails the test."""
    try:
        _read(data)
    except ArtifactError as exc:
        message = str(exc)
        assert NAMED.search(message), message
        return message
    raise AssertionError("hostile bytes loaded")


def _boundaries(data: bytes) -> list[int]:
    """Where each block frame starts, and the end of the file."""
    edges, offset = [], len(MAGIC) + 2
    for _, payload in read_container(io.BytesIO(data)):
        edges.append(offset)
        offset += 12 + len(payload) + 4
    return edges + [offset]


def _rewrite(data: bytes, block_type: int, mutate) -> bytes:
    """``data`` with one block's payload replaced (its CRC recomputed)."""
    blocks = read_container(io.BytesIO(data))
    (index,) = [i for i, (kind, _) in enumerate(blocks) if kind == block_type]
    blocks[index] = (block_type, mutate(blocks[index][1]))
    stream = io.BytesIO()
    write_container(stream, blocks)
    return stream.getvalue()


def _tables(edit):
    """A mutation of one columnar block through ``edit(scalars, arrays)``."""
    def mutate(payload: bytes) -> bytes:
        scalars, arrays = unpack_arrays(payload)
        edit(scalars, arrays)
        return pack_arrays(scalars, arrays)
    return mutate


def _set(column: str, row: int, value: int):
    return _tables(lambda scalars, arrays:
                   arrays[column].__setitem__(row, value))


def _header(edit):
    """A mutation of the JSON HEADER block through ``edit(header)``."""
    def mutate(payload: bytes) -> bytes:
        header = unpack_json(payload)
        edit(header)
        return pack_json(header)
    return mutate


def _with_payloads(data: bytes) -> bytes:
    """A corpus plan carrying one real plaintext payload (and saying so
    in HEADER), so the PAYLOADS decoder has a block to refuse."""
    plaintext = Plaintext(coeffs=np.arange(8, dtype=np.int64),
                          scale=2.0 ** 20, num_slots=4)
    blocks = read_container(io.BytesIO(_rewrite(data, HEADER, _header(
        lambda header: header["counts"].update(payloads=1)))))
    blocks.append((PAYLOADS, encode_payloads({0: plaintext})))
    stream = io.BytesIO()
    write_container(stream, blocks)
    return stream.getvalue()


def _fuse_first_declared(scalars, arrays) -> None:
    """The first declared ``rescale=False`` product, flagged the way an
    old recorder wrote a ``rescale=True`` call."""
    flags = arrays["meta_rescaled"]
    flags[np.flatnonzero(flags == 0)[0]] = 1


#: Crafted, CRC-valid lies: (block, mutation).  Before the reader
#: checked its tables, the first five escaped as KeyError /
#: AttributeError / ValueError / TypeError / IndexError and the input
#: offset past the inputs loaded as a truncated input list; so did a
#: modulus of 2**56 or more (the largest prime below 2**62) before the
#: parameters refused one, and the first op with inputs reading the
#: last op before the reader ran ``structural_problems``.
CRAFTED = {
    "payloads-without-offsets":
        (PAYLOADS, _tables(lambda s, a: a.pop("offsets"))),
    "array-index-is-a-json-list":
        (TRACE_OPS, lambda payload: zlib.compress(
            struct.pack("<I", 2) + b"[]")),
    "num-ops-is-a-string":
        (TRACE_OPS, _tables(lambda s, a: s.update(num_ops="x"))),
    "kinds-is-a-number":
        (TRACE_OPS, _tables(lambda s, a: s.update(kinds=5))),
    "meta-residual-entry-is-a-list":
        (TRACE_OPS, _tables(lambda s, a: s.update(
            meta_residual={"0": [1, 2]}))),
    "input-offset-past-the-inputs":
        (TRACE_OPS, _set("input_offsets", 1, 10 ** 9)),
    "input-points-at-a-later-op":
        (TRACE_OPS, _tables(lambda s, a: a["inputs"].__setitem__(
            0, s["num_ops"] - 1))),
    "a-product-and-its-rescale-in-one-op":
        (TRACE_OPS, _tables(_fuse_first_declared)),
    "modulus-of-2-56-or-more":
        (HEADER, _header(lambda header: header["params"]["moduli"]
                         .__setitem__(1, (1 << 62) - 57))),
}


@pytest.mark.parametrize("name", NAMES)
def test_the_crafted_bases_load(name):
    """The mutations start from files that load: the lie is the cause."""
    data = _with_payloads(_corpus(name))
    for block_type in (TRACE_OPS, PAYLOADS):
        artifact = _read(_rewrite(data, block_type, _tables(
            lambda scalars, arrays: None)))
        assert artifact.payloads[0].num_slots == 4
    assert _read(data).trace == _read(_corpus(name)).trace


@pytest.mark.parametrize("case", sorted(CRAFTED))
@pytest.mark.parametrize("name", NAMES)
def test_a_crafted_block_is_refused_by_name(name, case):
    block_type, mutate = CRAFTED[case]
    message = _refusal(_rewrite(_with_payloads(_corpus(name)), block_type,
                                mutate))
    assert ArtifactBlockType(block_type).name in message, message


@pytest.mark.parametrize("name", NAMES)
def test_a_fused_product_is_refused_naming_its_op(name):
    data = _corpus(name)
    _, arrays = unpack_arrays(read_container(io.BytesIO(data))[1][1])
    op = int(np.flatnonzero(arrays["meta_rescaled"] == 0)[0])
    message = _refusal(_rewrite(data, TRACE_OPS,
                                _tables(_fuse_first_declared)))
    assert f"TRACE_OPS: op {op} (" in message, message


def _first_block_op(data: bytes) -> int:
    """The first op that lowers to a block at its operating level."""
    return next(op.op_id for op in _read(data).trace.ops
                if OPS[op.kind].block is not None
                and OPS[op.kind].block_level == "level")


def _refused_at_load_plan(tmp_path, data: bytes, op: int, kind: str):
    """``data`` reads, and ``load_plan`` refuses it naming TRACE_OPS and
    the op."""
    assert _read(data).trace is not None
    path = tmp_path / "lying.rpa"
    path.write_bytes(data)
    with pytest.raises(ArtifactError) as refused:
        load_plan(str(path))
    message = str(refused.value)
    assert re.search(rf"TRACE_OPS: (?s:.*)op {op} \({kind}\)", message), \
        message
    return message


@pytest.mark.parametrize("name", NAMES)
def test_a_level_past_max_level_is_refused_at_load_plan(tmp_path, name):
    """The reader checks structure only (the linter must still load a
    trace that breaks a level rule); ``load_plan`` validates the trace
    and refuses it, naming TRACE_OPS."""
    data = _corpus(name)
    op = _first_block_op(data)
    message = _refused_at_load_plan(
        tmp_path, _rewrite(data, TRACE_OPS, _set("level", op, 99)), op,
        _read(data).trace.op(op).kind.value)
    assert re.search(r"TRACE_OPS: (?s:.*) level 99 outside \[0, 23\]",
                     message), message


@pytest.mark.parametrize("name", NAMES)
def test_a_rescale_that_keeps_its_level_is_refused_at_load_plan(tmp_path,
                                                                name):
    """A rescale block sits at its operating level, so the block graph
    of this trace is whole: only validation sees the level it keeps."""
    data = _corpus(name)
    rescale = next(op for op in _read(data).trace.ops
                   if op.kind is OpKind.RESCALE)
    _refused_at_load_plan(tmp_path, _rewrite(
        data, TRACE_OPS, _set("out_level", rescale.op_id, rescale.level)),
        rescale.op_id, "rescale")


def test_a_rotate_add_without_its_key_is_refused_at_load_plan(tmp_path):
    """Lowering names a group's keys from its amounts, so the block graph
    of this trace is whole: only validation sees the missing key id."""
    plan = pins.SERVED["scoring"]().compile(CkksParameters.toy())
    plan.save(str(tmp_path / "scoring.rpa"))
    (op, *_) = [op.op_id for op in plan.trace.ops
                if op.kind is OpKind.ROTATE_ADD]
    data = _rewrite((tmp_path / "scoring.rpa").read_bytes(), TRACE_OPS,
                    _set("key", op, -1))
    assert _read(data).trace.op(op).key is None
    _refused_at_load_plan(tmp_path, data, op, "rotate_add")


@pytest.mark.parametrize("name", NAMES)
def test_every_truncation_is_refused(name):
    data = _corpus(name)
    for end in range(len(data)):
        _refusal(data[:end])


@pytest.mark.parametrize("name", NAMES)
def test_every_bit_flip_near_a_block_boundary_is_refused(name):
    data = _corpus(name)
    offsets = sorted({offset for edge in _boundaries(data)
                      for offset in range(edge - 16, edge + 16)
                      if 0 <= offset < len(data)})
    for offset in offsets:
        for bit in range(8):
            flipped = bytearray(data)
            flipped[offset] ^= 1 << bit
            _refusal(bytes(flipped))


# -- the ``hoist`` rows of old files -----------------------------------------

#: ``boot`` at paper parameters, saved by a writer that recorded hoists.
V2_BOOT = pathlib.Path(__file__).parent / "fixtures" / "boot_v2.rpa"


def _at_first_hoist(edit):
    """A TRACE_OPS mutation through ``edit(arrays, hoist row, kinds)``."""
    def mutate(scalars, arrays) -> None:
        kinds = [scalars["kinds"][k] for k in arrays["kind"].tolist()]
        edit(arrays, kinds.index("hoist"), kinds)
    return _tables(mutate)


def _reads_itself(arrays, hoist, kinds) -> None:
    arrays["inputs"][arrays["input_offsets"][hoist]] = hoist


def _takes_two(arrays, hoist, kinds) -> None:
    arrays["input_offsets"][hoist + 1] += 1


def _he_add_reads_it(arrays, hoist, kinds) -> None:
    add = kinds.index("he_add", hoist)
    arrays["inputs"][arrays["input_offsets"][add]] = hoist


@pytest.mark.parametrize("edit", [_reads_itself, _takes_two],
                         ids=["dangling-input", "wrong-arity"])
def test_a_lying_hoist_row_is_refused_by_name(edit):
    message = _refusal(_rewrite(V2_BOOT.read_bytes(), TRACE_OPS,
                                _at_first_hoist(edit)))
    assert "TRACE_OPS" in message, message


def test_a_hoist_row_an_he_add_reads_is_a_valid_copy(tmp_path):
    """The handle a ``hoist`` row once named could not be added; the
    copy it now reads as can, so the file loads and lowers."""
    path = tmp_path / "boot.rpa"
    path.write_bytes(_rewrite(V2_BOOT.read_bytes(), TRACE_OPS,
                              _at_first_hoist(_he_add_reads_it)))
    trace = _read(path.read_bytes()).trace
    (add,) = [op for op in trace.ops if op.kind is OpKind.HE_ADD
              and trace.op(op.inputs[0]).kind is OpKind.COPY]
    assert load_plan(str(path)).trace.op(add.op_id) == add
