"""Edge-case coverage for diffing saved traces on the command line.

``python -m repro.artifact diff`` is the one diff front door; the happy
paths live in ``test_trace_serialization.py``.  This file pins the
failure modes: an empty file, a missing file, and an artifact whose
TRACE_OPS names an unknown op kind must fail with a message naming the
file (and the op) and exit code 2, while identical traces keep exiting 0.
"""

import io

import pytest

from repro.artifact import ArtifactError, load_trace, save_trace
from repro.artifact.__main__ import main
from repro.artifact.format import pack_arrays, unpack_arrays, write_container
from repro.artifact.writer import trace_blocks
from repro.fhe.params import CkksParameters
from repro.trace import SymbolicEvaluator, TracingEvaluator


def _trace(name, num_rotations):
    ev = TracingEvaluator(SymbolicEvaluator(CkksParameters.toy()),
                          name=name)
    ct = ev.fresh(level=4)
    prod = ev.he_mult(ct, ct, rescale=True)
    for rotation in range(1, num_rotations + 1):
        ev.he_rotate(prod, rotation)
    return ev.trace


def _save_trace(tmp_path, name, num_rotations):
    path = tmp_path / f"{name}.rpa"
    save_trace(_trace(name, num_rotations), str(path))
    return str(path)


def diff_main(argv):
    return main(["diff", *argv])


def _save_with_kind(tmp_path, op_id, kind):
    """A one-rotation trace whose op ``op_id`` names ``kind`` (the
    interned kind-table entry it points at is renamed; CRCs are valid)."""
    blocks = trace_blocks(_trace("bad", 1))
    scalars, arrays = unpack_arrays(blocks[1][1])
    scalars["kinds"][arrays["kind"][op_id]] = kind
    blocks[1] = (blocks[1][0], pack_arrays(scalars, arrays))
    stream = io.BytesIO()
    write_container(stream, blocks)
    path = tmp_path / "bad.rpa"
    path.write_bytes(stream.getvalue())
    return str(path)


class TestDiffCliEdgeCases:
    def test_identical_traces_exit_zero(self, tmp_path, capsys):
        a = _save_trace(tmp_path, "a", num_rotations=2)
        assert diff_main([a, a]) == 0
        assert "no structural deltas" in capsys.readouterr().out

    def test_mismatched_op_id_ranges_exit_one(self, tmp_path, capsys):
        """Traces of different lengths report deltas and exit 1."""
        a = _save_trace(tmp_path, "a", num_rotations=2)
        b = _save_trace(tmp_path, "b", num_rotations=5)
        assert diff_main([a, b]) == 1
        out = capsys.readouterr().out
        assert "he_rotate" in out
        assert "4 ops" in out and "7 ops" in out

    def test_empty_trace_file_exits_two(self, tmp_path, capsys):
        a = _save_trace(tmp_path, "a", num_rotations=1)
        empty = tmp_path / "empty.rpa"
        empty.write_bytes(b"")
        assert diff_main([a, str(empty)]) == 2
        err = capsys.readouterr().err
        assert "not an .rpa artifact" in err
        assert "empty.rpa" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        a = _save_trace(tmp_path, "a", num_rotations=1)
        assert diff_main([a, str(tmp_path / "nope.rpa")]) == 2
        assert "nope.rpa" in capsys.readouterr().err

    def test_unknown_op_kind_fails_with_clear_message(self, tmp_path,
                                                      capsys):
        a = _save_trace(tmp_path, "a", num_rotations=1)
        bad = _save_with_kind(tmp_path, 1, "he_frobnicate")
        assert diff_main([a, bad]) == 2
        err = capsys.readouterr().err
        assert "bad.rpa" in err
        assert "unknown op kind 'he_frobnicate'" in err
        assert "op 1" in err

    def test_unknown_op_kind_load_error_names_the_op(self, tmp_path):
        """``load_trace`` itself raises a self-describing error."""
        bad = _save_with_kind(tmp_path, 0, "warp_core_breach")
        with pytest.raises(ArtifactError,
                           match=r"TRACE_OPS: op 0: unknown op kind "
                                 r"'warp_core_breach'"):
            load_trace(bad)
