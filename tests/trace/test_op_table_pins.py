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
                         op.hoist_group, op.region,
                         sorted(op.meta.items()))).encode())
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
        "76d818e22eaa2e1b4d00273551c3f9538c130d8aa4f47e0b6f85d8f332d0e527",
        "01de880c5cfd16f46f0df63b24c6af1b68f7cca9f39cf116eaade2ddd0bde280"),
    ("boot", "test"): (
        "8a597b0b25a698c1fbcc3f8e707917069d4958b8e2e95bed79cebab633237d36",
        "ef2b61bc603b84eda1f4e864e6cb74dd951770ae51ae9b11d24790d9a574b55d"),
    ("helr", "paper"): (
        "c33c032084e220801a7075cf4663f9906af0a7bb018c7c597bda162eb412dd1e",
        "41be1ad0a04a3e085636a363d82142da001b613839eb8ea68805caf8602628b5"),
    ("helr", "test"): (
        "2ad3cf54319a3794963096dfb35e9d9922bfbdaf3af33094f4a4b6512431c152",
        "a68a6d2b60f8e1ad0750215cf8ea17caadb4a766811a34c31025236fdc333f56"),
    ("resnet", "paper"): (
        "637555ca6279598e4591397ad466e53170e9de2a44d50272f086c603f466d336",
        "03fe4e0750968079269c5637bfb3d4181d73a7632734c438b091d9282c10bbb9"),
    ("resnet", "test"): (
        "39e387795dedb2a2b9d5bc457b9a3ef5906b1d2aff11c89b7c7b02d73ec21783",
        "1a44f999a51024b59b0777fa2379675d92c514bcb1a1a769d5516326c6a3c673"),
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
        "0e314e3e8a3a0f0951189a5d5af95fc3cff5eeba8d5decf47e343a559ee990aa",
        "506fcb28bf9c1074d253dd5d8f00eb3d3a88d844b9e8a13e8cdadf22718e36df"),
    ("scoring", "pw54"): (
        "294db2efeba366231a4cdb38a0db276c794dd213e27dbacc7ce332c950d0dfa8",
        "0bff4134c0db743a04f1e82627f678f040638886f7dafdda50fadde1f15ed10c"),
    ("affine", "toy"): (
        "583fd19258c40f2aa31bae75fa135211c7bb687cabec475f4bf360f00ec63fa2",
        "ac57ac5c21c2ce5dd6971667c9715b11df41ae61adb2d87c3be736ca180d4360"),
    ("affine", "pw54"): (
        "940813f3bda4b14ad0aded41d9804eb200c049e8792bd264311b50ffaf82d21a",
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
