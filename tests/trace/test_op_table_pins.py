"""Traces, lowered DAGs and replayed residues pinned against the commit
before the op table.

Record, replay, the symbolic rules and lowering each used to restate per
``OpKind`` what an op is; they now read ``repro.trace.ops.OPS``.  A
change of owner must leave every recorded row, every lowered block and
every replayed residue where it was, so the digests below were recorded
at commit f81a58d — hand-written recorder / symbolic methods, the
``_replay_op`` ladder, ``KIND_TO_BLOCK`` / ``_KIND_STEM`` — by running
this very file (``PYTHONPATH=src python tests/trace/test_op_table_pins.py``
prints the tables), before any file under ``src/`` changed; they pass
unchanged on both commits.  Floats are hashed by ``repr``: bit-identical
or not at all.

Encryption became the key owner's secret-key form,
``(NTT(m + e) - a*s, a)``, in place of the public-key form: a fresh
ciphertext draws ``a`` and one ``e`` where it drew ``u``, ``e0`` and
``e1``, and a key generator no longer draws a public key.  The replayed
residues of ``REPLAY_PINS`` were recorded at commit 693746e, before
that change, and re-recorded after it; the trace digests beside them and
every ``OFFLINE_PINS`` entry held.  Old -> new:

* scoring, toy: ``8a660cc4…`` -> ``930db78e…``;
* scoring, pw54: ``6fc94f2c…`` -> ``888977e2…``;
* affine, toy: ``8811e9c2…`` -> ``ac57ac5c…``;
* affine, pw54: ``6164ae50…`` -> ``214cb819…``.

``rotate_sum`` became two radix-4 ``rotate_add`` ops (one hoist and one
ModDown each) in place of four ``he_rotate`` + ``he_add`` pairs: the
scoring trace is 7 ops where it was 13, and its replayed residues
moved.  Both scoring entries — trace digest and residues — were
recorded at commit 9084715, before that change, and re-recorded after
it; the affine entries and every ``OFFLINE_PINS`` entry held.  Old ->
new:

* scoring, toy: ``5b0185bb…`` / ``930db78e…`` -> ``0e314e3e…`` /
  ``55cfb6eb…``;
* scoring, pw54: ``fb71a45d…`` / ``888977e2…`` -> ``294db2ef…`` /
  ``60a6ec28…``.

A switching key became one key per id, drawn once at ``max_level``
over the CRT-idempotent gadget: digit j's key carries ``P * 1_j * s'``
where it carried ``P * hat{Q}_j * s'``, and the digit is the unscaled
residue ``[c]_{Q_j}`` where it was ``[c * hat{Q}_j^{-1}]_{Q_j}``.  The
scoring residues moved; both scoring residue digests were recorded at
commit 5c8a22f, before that change, and re-recorded after it.  The
trace digests beside them, the affine entries and every
``OFFLINE_PINS`` entry held.  Old -> new:

* scoring, toy: ``55cfb6eb…`` -> ``83842333…``;
* scoring, pw54: ``60a6ec28…`` -> ``b80707a5…``.

Switching keys became batch draws (``KeyGenerator.switching_keys``): a
plan draws every key it names as one batch before it replays, with one
bounded uniform draw per modulus of C_L + P and one Gaussian draw for
all of their digits, so the scoring residues moved.  The 54-bit tier's
uniform sampler became one bounded draw, so the encrypted ``pw54``
input, and with it the affine ``pw54`` residues, moved too.  The three
residue digests were recorded at commit b703b70, before that change,
and re-recorded after it; the trace digests beside them, the affine
``toy`` entry and every ``OFFLINE_PINS`` entry held.  Old -> new:

* scoring, toy: ``83842333…`` -> ``506fcb28…``;
* scoring, pw54: ``b80707a5…`` -> ``0bff4134…``;
* affine, pw54: ``214cb819…`` -> ``8940b35c…``.

``TraceOp.hoist_group``, the ``hoisted`` meta flag, the
``infer_hoist_groups`` pass (and its ``inferred_hoist`` flag) and the
blocks' ``hoist_group`` metadata left the trace stack: a rotation is
hoisted exactly when it reads a ``HOIST`` op.  The digest helper no
longer hashes the field, so every trace and DAG digest moved; every
residue digest held.  Recomputed at commit d4fabed, before that change,
with the field, those two flags and that metadata left out, each new
digest is the old commit's.  Old -> new (trace / DAG; replay lanes
trace only):

* boot, paper: ``76d818e2…`` / ``01de880c…`` -> ``ffb8c721…`` /
  ``4d0c608c…``;
* boot, test: ``8a597b0b…`` / ``ef2b61bc…`` -> ``e98a567a…`` /
  ``dba861ef…``;
* helr, paper: ``c33c0320…`` / ``41be1ad0…`` -> ``7b1d9450…`` /
  ``ea2feef4…``;
* helr, test: ``2ad3cf54…`` / ``a68a6d2b…`` -> ``f7f70ed5…`` /
  ``cd9b3ce2…``;
* resnet, paper: ``637555ca…`` / ``03fe4e07…`` -> ``693991a6…`` /
  ``d8e13c5c…``;
* resnet, test: ``39e38779…`` / ``1a44f999…`` -> ``2ddeef3b…`` /
  ``521c17e1…``;
* scoring, toy: ``0e314e3e…`` -> ``f24ce007…``;
* scoring, pw54: ``294db2ef…`` -> ``9dd3c778…``;
* affine, toy: ``583fd192…`` -> ``cec91df1…``;
* affine, pw54: ``940813f3…`` -> ``5fe28200…``.
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
        "ffb8c721852ca561dc94586b1b22d89cc8ffc2801dcfe0459e1378da4516597b",
        "4d0c608c3852e3ea75a6d0d3f6a958e1b9deca813a21983ca523b4da5dfdd0d6"),
    ("boot", "test"): (
        "e98a567adb015b9248694b25cb40bc98978141bcb7ff86970b0530ac228835b7",
        "dba861ef7951f9d01c47a1ed0d120c01d467ecaaf1840a8b7d5d9d8a8732dbf2"),
    ("helr", "paper"): (
        "7b1d945095bc083c58a49ad7364875b02d2b0be87fae40f8b766ca9667c7a9e6",
        "ea2feef4c300043d24b35586addba6e19b9932bbf1cc9ca3018bdc1c7d400a82"),
    ("helr", "test"): (
        "f7f70ed5e7f8cbde66e8c8e47567e2595c27564b604a22b318ad764b8696a2ed",
        "cd9b3ce224123e38938e4e75d07af249637efae5449edb80d199d1269b66015c"),
    ("resnet", "paper"): (
        "693991a6da15b985a4f55c8cf65e672db4bffc229116500e73671814dec7d450",
        "d8e13c5c9f28ace78381434c2259b133080550f2b584677727f210836c39d442"),
    ("resnet", "test"): (
        "2ddeef3b3aa2c5f65d172d1c6067ba89641b59e0523abbce274ef87ffc2ad254",
        "521c17e11151c2b14ef431dd828fa567990f8863a98e9bbe559cde7db920dba7"),
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


def _replay_digests(workload: str, preset: str) -> tuple[str, str]:
    """(digest of the served plan's trace rows, digest of every value
    ``plan.execute`` produced, op by op) for one seeded context."""
    params = REAL_PRESETS[preset]()
    plan = SERVED[workload]().compile(params)
    ctx = CkksContext(params, seed=123)
    slots = np.random.default_rng(7).uniform(-1.0, 1.0, params.num_slots)
    run = plan.execute(ctx, sources=[ctx.encrypt(slots)])
    sha = hashlib.sha256()
    for op in plan.trace.ops:
        value = run.values[op.op_id]
        ct = getattr(value, "ct", value)      # a HOIST yields a handle
        sha.update(f"{op.op_id}:{ct.level}:{ct.scale!r};".encode())
        for poly in (ct.c0, ct.c1):
            for limb in poly.limbs:
                sha.update(np.ascontiguousarray(limb, dtype=np.int64)
                           .tobytes())
    assert run.output is run.values[plan.trace.output_op_id]
    return _trace_digest(plan.trace), sha.hexdigest()


#: (workload, preset) -> (trace digest, digest of the replayed residues).
REPLAY_PINS = {
    ("scoring", "toy"): (
        "f24ce00766388a303209568ad26e42d034b2b9a95175a41f50bd1ac0ff5247cc",
        "506fcb28bf9c1074d253dd5d8f00eb3d3a88d844b9e8a13e8cdadf22718e36df"),
    ("scoring", "pw54"): (
        "9dd3c77850dd8187725dfe7cb6ab8787fdf87c5cb36644b9bd7735b7404ee2a2",
        "0bff4134c0db743a04f1e82627f678f040638886f7dafdda50fadde1f15ed10c"),
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
