"""Container-framing tests: corruption, truncation, version skew.

A corrupt ``.rpa`` must never half-load: bad magic, a truncated frame,
and a CRC mismatch each raise their specific error naming the file; an
*unknown block type* inside a valid container is the one graceful case
(skipped with :class:`UnknownBlockWarning`); a container written by a
newer framing version refuses with an explicit upgrade message.
"""

import io
import pathlib
import struct
import zlib

import pytest

from repro import engine
from repro.artifact import (CONTAINER_VERSION, MAGIC, ArtifactBlockType,
                            ArtifactFormatError, ArtifactIntegrityError,
                            ArtifactVersionError, UnknownBlockWarning,
                            load_plan, read_artifact, save_trace)
from repro.artifact.format import (pack_arrays, pack_json, read_container,
                                   unpack_arrays, unpack_json,
                                   write_container)
from repro.fhe.params import CkksParameters
from repro.gme.features import figure7_configs
from repro.trace import OpKind, OpTrace, SymbolicEvaluator, TracingEvaluator

#: The catalog's ``boot`` plan at paper parameters as the last version 1
#: writer saved it, with the per-op hoist-group and ``meta_hoisted``
#: columns that version 2 dropped.
V1_BOOT = pathlib.Path(__file__).parent / "fixtures" / "boot_v1.rpa"
#: The same plan as the last writer whose programs named their hoists
#: saved it: version 2, with ``hoist`` rows.
V2_BOOT = pathlib.Path(__file__).parent / "fixtures" / "boot_v2.rpa"


def _toy_trace() -> OpTrace:
    ev = TracingEvaluator(SymbolicEvaluator(CkksParameters.toy()),
                          name="fmt")
    ct = ev.fresh(level=4)
    prod = ev.he_mult(ct, ct, rescale=True)
    ev.he_rotate(prod, 3)
    ev.trace.output_op_id = ev.trace.ops[-1].op_id
    return ev.trace


@pytest.fixture()
def artifact_path(tmp_path):
    path = tmp_path / "fmt.rpa"
    save_trace(_toy_trace(), str(path))
    return path


def _rewrite(path, mutate):
    data = bytearray(path.read_bytes())
    mutate(data)
    path.write_bytes(bytes(data))


class TestContainerFraming:
    def test_round_trip_blocks(self):
        blocks = [(int(ArtifactBlockType.HEADER), b"alpha"),
                  (int(ArtifactBlockType.TRACE_OPS), b""),
                  (99, b"future payload")]
        stream = io.BytesIO()
        write_container(stream, blocks)
        stream.seek(0)
        assert read_container(stream, "mem") == blocks

    def test_magic_written(self, artifact_path):
        assert artifact_path.read_bytes()[:len(MAGIC)] == MAGIC

    def test_bad_magic(self, artifact_path):
        _rewrite(artifact_path, lambda d: d.__setitem__(0, 0x00))
        with pytest.raises(ArtifactFormatError,
                           match="not an .rpa artifact"):
            read_artifact(str(artifact_path))

    def test_future_container_version(self, artifact_path):
        offset = len(MAGIC)

        def bump(data):
            data[offset:offset + 2] = struct.pack(
                "<H", CONTAINER_VERSION + 1)

        _rewrite(artifact_path, bump)
        with pytest.raises(ArtifactVersionError, match="upgrade repro"):
            read_artifact(str(artifact_path))

    def test_truncated_header_frame(self, artifact_path):
        data = artifact_path.read_bytes()
        artifact_path.write_bytes(data[:len(MAGIC) + 2 + 5])
        with pytest.raises(ArtifactIntegrityError, match="truncated"):
            read_artifact(str(artifact_path))

    def test_truncated_payload(self, artifact_path):
        data = artifact_path.read_bytes()
        artifact_path.write_bytes(data[:-7])
        with pytest.raises(ArtifactIntegrityError, match="truncated"):
            read_artifact(str(artifact_path))

    def test_crc_mismatch(self, artifact_path):
        # Flip a payload byte inside the first frame; its CRC no longer
        # matches and the reader must refuse rather than decode garbage.
        offset = len(MAGIC) + 2 + struct.calcsize("<HHQ") + 4

        def corrupt(data):
            data[offset] ^= 0xFF

        _rewrite(artifact_path, corrupt)
        with pytest.raises(ArtifactIntegrityError, match="CRC"):
            read_artifact(str(artifact_path))

    def test_nonzero_flags_rejected(self):
        stream = io.BytesIO()
        write_container(stream,
                        [(int(ArtifactBlockType.HEADER), b"x")])
        data = bytearray(stream.getvalue())
        data[len(MAGIC) + 2 + 2] = 1     # flags field of frame 0
        with pytest.raises(ArtifactFormatError, match="flags"):
            read_container(io.BytesIO(bytes(data)), "mem")

    def test_error_message_names_the_file(self, artifact_path):
        _rewrite(artifact_path, lambda d: d.__setitem__(0, 0x00))
        with pytest.raises(ArtifactFormatError,
                           match=str(artifact_path)):
            read_artifact(str(artifact_path))


class TestUnknownBlocks:
    def test_unknown_block_skipped_with_warning(self, tmp_path):
        trace = _toy_trace()
        path = tmp_path / "extended.rpa"
        save_trace(trace, str(path))
        # Append a frame of an unregistered type, as a newer writer
        # with an extra block would.
        blocks = read_container(io.BytesIO(path.read_bytes()), "mem")
        blocks.append((240, b"from the future"))
        stream = io.BytesIO()
        write_container(stream, blocks)
        path.write_bytes(stream.getvalue())

        with pytest.warns(UnknownBlockWarning, match="block type 240"):
            artifact = read_artifact(str(path))
        assert artifact.skipped_blocks == [240]
        assert artifact.trace == trace

    def test_header_must_come_first(self, tmp_path):
        path = tmp_path / "headless.rpa"
        stream = io.BytesIO()
        write_container(stream, [(int(ArtifactBlockType.PROVENANCE),
                                  pack_json({"tool": "x"}))])
        path.write_bytes(stream.getvalue())
        with pytest.raises(ArtifactFormatError, match="HEADER"):
            read_artifact(str(path))

    def test_newer_trace_schema_rejected(self, tmp_path):
        from repro.artifact.writer import trace_blocks
        blocks = trace_blocks(_toy_trace())
        header = unpack_json(blocks[0][1], "HEADER")
        header["schema_version"] = header["schema_version"] + 1
        blocks[0] = (blocks[0][0], pack_json(header))
        path = tmp_path / "newer.rpa"
        stream = io.BytesIO()
        write_container(stream, blocks)
        path.write_bytes(stream.getvalue())
        with pytest.raises(ValueError, match="newer than this reader"):
            read_artifact(str(path))


def _data_flow(trace) -> list[tuple]:
    """``(kind, inputs, level, key)`` per op, copies routed through and
    ids renumbered over the ops that remain."""
    position, rows = {}, []
    for op in trace.ops:
        inputs = tuple(position[i] for i in op.inputs)
        if op.kind is OpKind.COPY:
            position[op.op_id] = inputs[0]
            continue
        position[op.op_id] = len(rows)
        rows.append((op.kind, inputs, op.level, op.key))
    return rows


class _OldFile:
    """An old file loads through the one decoder, which reads only the
    columns it names and reads a ``hoist`` row as a copy, and lowers to
    the plan a fresh compile builds."""

    path: pathlib.Path

    @pytest.fixture(scope="class")
    def plans(self):
        return (load_plan(str(self.path)),
                engine.compile("boot", CkksParameters.paper()))

    def test_it_loads_the_fresh_data_flow(self, plans):
        loaded, fresh = plans
        assert _data_flow(loaded.trace) == _data_flow(fresh.trace)

    def test_its_hoists_are_the_fresh_galois_groups(self, plans):
        """Eight BSGS stages, whose rotations read one copy, and
        EvalMod's conjugation pair."""
        loaded, fresh = plans
        sizes = [len(ops) for ops in loaded.schedule.galois_groups.values()]
        assert len(sizes) == 9
        assert sizes == [len(ops) for ops in
                         fresh.schedule.galois_groups.values()]

    @pytest.mark.parametrize("features", figure7_configs(),
                             ids=lambda features: features.name)
    def test_it_simulates_to_a_fresh_compiles_cycles(self, plans, features):
        loaded, fresh = plans
        assert loaded.simulate(features).cycles \
            == fresh.simulate(features).cycles


class TestVersionOneFiles(_OldFile):
    path = V1_BOOT

    def test_the_fixture_is_a_version_1_file(self):
        with open(V1_BOOT, "rb") as stream:
            (payload,) = [payload for kind, payload in read_container(stream)
                          if kind == ArtifactBlockType.TRACE_OPS]
        assert {"hoist_group", "meta_hoisted"} \
            <= set(unpack_arrays(payload)[1])
        assert read_artifact(str(V1_BOOT)).header["schema_version"] == 1


class TestVersionTwoHoistFiles(_OldFile):
    path = V2_BOOT

    def test_the_fixture_is_a_version_2_file_with_hoist_rows(self):
        with open(V2_BOOT, "rb") as stream:
            (payload,) = [payload for kind, payload in read_container(stream)
                          if kind == ArtifactBlockType.TRACE_OPS]
        scalars, _ = unpack_arrays(payload)
        assert "hoist" in scalars["kinds"]
        assert read_artifact(str(V2_BOOT)).header["schema_version"] == 2


class TestParamsDocument:
    """``read_artifact`` promises ``ArtifactError``; a params document
    with a key too many or too few used to escape it as the bare
    ``TypeError`` of ``CkksParameters(**fields)``."""

    @staticmethod
    def _read_with_params(tmp_path, mutate):
        from repro.artifact.writer import trace_blocks
        trace = _toy_trace()
        blocks = trace_blocks(trace)
        header = unpack_json(blocks[0][1], "HEADER")
        mutate(header["params"])
        blocks[0] = (blocks[0][0], pack_json(header))
        path = tmp_path / "params.rpa"
        stream = io.BytesIO()
        write_container(stream, blocks)
        path.write_bytes(stream.getvalue())
        return trace, read_artifact(str(path))

    def test_legacy_exact_mod_down_mode_is_dropped(self, tmp_path):
        """Every artifact written before the knob went carries it."""
        trace, artifact = self._read_with_params(
            tmp_path, lambda doc: doc.update(mod_down_mode="exact"))
        assert artifact.trace == trace
        assert artifact.params == trace.params

    def test_removed_approx_mode_is_refused_by_name(self, tmp_path):
        with pytest.raises(ArtifactFormatError,
                           match="mod_down_mode.*approx.*removed"):
            self._read_with_params(
                tmp_path, lambda doc: doc.update(mod_down_mode="approx"))

    def test_unknown_key_is_a_format_error_naming_it(self, tmp_path):
        with pytest.raises(ArtifactFormatError,
                           match="unknown key.*'ring_dimension'"):
            self._read_with_params(
                tmp_path, lambda doc: doc.update(ring_dimension=1024))

    def test_missing_key_is_a_format_error_naming_it(self, tmp_path):
        with pytest.raises(ArtifactFormatError,
                           match="missing key.*'dnum'"):
            self._read_with_params(tmp_path, lambda doc: doc.pop("dnum"))


class TestPayloadEncodings:
    def test_pack_json_round_trip(self):
        doc = {"a": 1, "nested": {"b": [1, 2, 3]}, "s": "text"}
        assert unpack_json(pack_json(doc), "X") == doc

    def test_pack_json_deterministic(self):
        assert pack_json({"b": 1, "a": 2}) == pack_json({"a": 2, "b": 1})

    def test_pack_arrays_round_trip(self):
        import numpy as np
        scalars = {"n": 3, "label": "t"}
        arrays = {"levels": np.array([4, 3, -1], dtype=np.int32),
                  "flags": np.array([1, 0, -1], dtype=np.int8),
                  "scales": np.array([1.0, 0.5], dtype=np.float64)}
        out_scalars, out_arrays = unpack_arrays(
            pack_arrays(scalars, arrays), "X")
        assert out_scalars == scalars
        assert set(out_arrays) == set(arrays)
        for name, array in arrays.items():
            assert out_arrays[name].dtype == array.dtype
            assert (out_arrays[name] == array).all()

    def test_corrupt_json_payload_is_integrity_error(self):
        with pytest.raises(ValueError, match="X"):
            unpack_json(zlib.compress(b"\xff\xfe not json"), "X")
