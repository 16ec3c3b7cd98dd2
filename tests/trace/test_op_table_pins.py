"""Traces, lowered DAGs and replayed residues, pinned.

Record, replay, the symbolic rules and lowering read
``repro.trace.ops.OPS``; a change to any of them must leave every
recorded row, every lowered block and every replayed residue where it
was, or move the pins below on purpose.  Floats are hashed by ``repr``:
bit-identical or not at all.  Re-pin only deliberately:
``PYTHONPATH=src python tests/trace/test_op_table_pins.py`` prints the
tables; CHANGES.md records every old -> new.
"""

import hashlib

import numpy as np
import pytest

from repro.fhe import CkksContext, CkksParameters
from repro.fhe.packing import SlotLayout
from repro.serve.workloads import ServedWorkload, scoring_workload
from repro.workloads import compile_workload

CATALOG = ("boot", "helr", "resnet")
WIDTH = 16


def _pw54() -> CkksParameters:
    """The 54-bit paper word on a toy ring (``bench.workloads.pw54``)."""
    return CkksParameters._build(ring_degree=1 << 10, scale_bits=50,
                                 prime_bits=54, max_level=5, boot_levels=2,
                                 dnum=2, fft_iterations=1)


OFFLINE_PRESETS = {"paper": CkksParameters.paper,
                   "test": CkksParameters.test}
REAL_PRESETS = {"toy": CkksParameters.toy, "pw54": _pw54}


# -- symbolic record -> passes -> lower ---------------------------------------

def _trace_digest(trace) -> str:
    sha = hashlib.sha256()
    sha.update(f"{trace.name}|{trace.output_op_id}|{len(trace.ops)}\n"
               .encode())
    for op in trace.ops:
        sha.update(repr((op.op_id, op.kind.value, op.inputs, op.level,
                         op.out_level, repr(op.out_scale), op.key,
                         op.region, sorted(op.meta.items()))).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _dag_digest(graph) -> str:
    sha = hashlib.sha256()
    for node_id, attrs in graph.nodes(data=True):
        block = attrs["block"]
        sha.update(repr((node_id, block.block_id, block.block_type.value,
                         block.level,
                         sorted(block.metadata.items(),
                                key=lambda item: item[0]))).encode())
        sha.update(b"\n")
    for u, v, attrs in graph.edges(data=True):
        sha.update(repr((u, v, repr(attrs["bytes"]))).encode())
        sha.update(b"\n")
    return sha.hexdigest()


#: (workload, preset) -> (trace digest, DAG digest).
OFFLINE_PINS = {
    ("boot", "paper"): (
        "6d30271dfc0a4a6379498ede11c9aedb3b6065a916c9e257b560ad9dada50c9c",
        "c34b16f7eb4c6575d5bb502784ef80e9c0259d11922cc816430145a5650eace6"),
    ("boot", "test"): (
        "82287a3b3e6ab7652cd95c96be5b9f42f507be26853afa7295f31f971a4b7de6",
        "4e99cc015ce21bf41e8c9c41f97b5f2a1eb1452e2217ec494aa5fa98b5d68270"),
    ("helr", "paper"): (
        "c5020a1203111561e90763bd8bee6eb6b5e6c7fd61d82168726a4cc1e866cab7",
        "1cbec15175ae298c16b964c5a958b49898768a95d7172cbf1cd556949471e7e5"),
    ("helr", "test"): (
        "e40211ad78689cadc21a1eb52c27a191b378ec03cecb3336251c191414d3429c",
        "5bd4b087ce42a7e66b2652bcf758197a800dcd6b67dc8fb18924ab3c5f5b7b92"),
    ("resnet", "paper"): (
        "041625e9da289d2e9d99ce611af82457887290ddcf6d7d931d6ac0b7670fb476",
        "0128156f414fd357c8da7aa4223c066cb20084b2b2068b147b4f2d32dbd901d6"),
    ("resnet", "test"): (
        "46477101dd4f584c653a7fdb7fd083a042c86bc5197df4ec36e18b73d0e98027",
        "9d1881eb903612ae53ca4b23fb13687c6223550403b6df345edcd9043e9f3f3a"),
}


@pytest.mark.parametrize("workload,preset", sorted(OFFLINE_PINS))
def test_recorded_rows_and_lowered_blocks_are_the_parents(workload, preset):
    plan = compile_workload(workload, OFFLINE_PRESETS[preset]())
    trace_pin, dag_pin = OFFLINE_PINS[workload, preset]
    assert _trace_digest(plan.trace) == trace_pin
    assert _dag_digest(plan.graph) == dag_pin


# -- real record -> replay ----------------------------------------------------

_AFFINE = tuple(np.linspace(lo, hi, WIDTH) for lo, hi in
                ((0.5, 1.0), (-0.5, 0.5), (1.0, 0.25), (0.25, -0.25)))


def _affine_workload() -> ServedWorkload:
    """``bench``'s key-switch-free lane: ``(x*a + b)*c + d`` slot-wise."""

    def build(layout: SlotLayout):
        a, b, c, d = (np.tile(v, layout.capacity) for v in _AFFINE)

        def affine(ev, ct):
            encode = ev.encoder.encode
            y = ev.poly_mult(ct, encode(a), rescale=True)
            y = ev.poly_add(y, encode(b, y.scale))
            y = ev.poly_mult(y, encode(c), rescale=True)
            return ev.poly_add(y, encode(d, y.scale))

        return affine

    return ServedWorkload(name=f"affine-w{WIDTH}", width=WIDTH,
                          build_program=build, result_slots=WIDTH)


SERVED = {"scoring": lambda: scoring_workload(WIDTH),
          "affine": _affine_workload}


#: (workload, preset) -> the op ids ``plan.execute`` makes no value for:
#: a key-switching product replayed with ``rescale=True`` as the rescale
#: that reads it (``repro.trace.ops.fused_rescales``).  Scoring's square
#: is left unrelinearized, so it is not fused: replay makes its value.
REPLAY_OMITS = {("scoring", "toy"): set(), ("scoring", "pw54"): set(),
                ("affine", "toy"): set(), ("affine", "pw54"): set()}


def _replay_digests(workload: str, preset: str) -> tuple[str, str]:
    """(digest of the served plan's trace rows, digest of every value
    ``plan.execute`` produced, op by op) for one seeded context.  Replay
    makes a value for every op but those of :data:`REPLAY_OMITS`."""
    params = REAL_PRESETS[preset]()
    plan = SERVED[workload]().compile(params)
    ctx = CkksContext(params, seed=123)
    slots = np.random.default_rng(7).uniform(-1.0, 1.0, params.num_slots)
    run = plan.execute(ctx, sources=[ctx.encrypt(slots)])
    assert {op.op_id for op in plan.trace.ops} - set(run.values) \
        == REPLAY_OMITS[workload, preset]
    sha = hashlib.sha256()
    for op in plan.trace.ops:
        if op.op_id not in run.values:
            continue
        value = run.values[op.op_id]
        sha.update(f"{op.op_id}:{value.level}:{value.scale!r};".encode())
        for poly in value.components:
            for limb in poly.limbs:
                sha.update(np.ascontiguousarray(limb, dtype=np.int64)
                           .tobytes())
    assert run.output is run.values[plan.trace.output_op_id]
    return _trace_digest(plan.trace), sha.hexdigest()


#: (workload, preset) -> (trace digest, digest of the replayed residues).
REPLAY_PINS = {
    ("scoring", "toy"): (
        "8d638344e6b28694d5035391075508b91fa8fccb9f20e5a8f26eaa8ab5cc3972",
        "89ce40e5697a7b9658d3c78e3358df09f9ccb3380aee0fea2b92d5cb6f354c6d"),
    ("scoring", "pw54"): (
        "c05ab7f9b7f860dc32d08ca08005f2ef8d6891c9d51f06ff0fca5217f8f1a17f",
        "d6a4e1e1e9c9e6d3598867f23525bb04f0c538e01fdd087ce0876ebdeaf2ba6e"),
    ("affine", "toy"): (
        "cec91df1af2749ab712efe9d9666efb6e07632c87a76c7e1078e8ea8f38573d8",
        "ac57ac5c21c2ce5dd6971667c9715b11df41ae61adb2d87c3be736ca180d4360"),
    ("affine", "pw54"): (
        "5fe28200cfb4ec6a8ec2acba1cd4ac0c05b0ebec57dc53cb70b55cf35f60ee41",
        "8940b35cc04161c97d4a095c093cea33ed9ccc17e09e38789f02e5239fcdf0f9"),
}


@pytest.mark.parametrize("workload,preset", sorted(REPLAY_PINS))
def test_replayed_residues_are_the_parents(workload, preset):
    assert _replay_digests(workload, preset) == REPLAY_PINS[workload, preset]


if __name__ == "__main__":
    print("OFFLINE_PINS = {")
    for name in CATALOG:
        for preset_name, preset in OFFLINE_PRESETS.items():
            plan = compile_workload(name, preset())
            print(f'    ("{name}", "{preset_name}"): (\n'
                  f'        "{_trace_digest(plan.trace)}",\n'
                  f'        "{_dag_digest(plan.graph)}"),')
    print("}\nREPLAY_PINS = {")
    for name in SERVED:
        for preset_name in REAL_PRESETS:
            rows, residues = _replay_digests(name, preset_name)
            print(f'    ("{name}", "{preset_name}"): (\n'
                  f'        "{rows}",\n        "{residues}"),')
    print("}")
