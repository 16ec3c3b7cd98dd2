"""The surface removed with the second plan source and timing model,
and with the second quotient rule, conversion kernels and stacked
transform of the key-switch path.

One road to a cycle count: a catalog name compiles to a traced plan and
BlockSim prices it.  One road through a key switch: ModUp and the
ModDown lift are one bound matmul, the lift's quotient is the true one,
a stacked transform is the multi-step chain.  One owner of what an HE
op is: ``repro.trace.ops.OPS``.  One fast backend and one plain oracle:
``stacked`` on its bound kernels, ``reference`` per limb, the exact CRT
underneath both in Python integers.  One on-disk form of a program:
``.rpa`` through ``repro.artifact``, and one diff.  One domain for a
residue: the plain one, and one storage: int64 — two kernel tiers and
no object tier, a modulus of 2**56 or more refused.  One harness per
question: a floor is a test id.  One encryption: the key owner's, under
the secret key, with no public key.  One switching key per id, drawn once
at ``max_level``: no level on a key and no per-level digit scaling.  One
keygen path: a batch draw, a single key being a batch of one.  One
decision about a hoist: the schedule's Galois groups over the data flow,
with no hoist op, handle, group number, flag, pass or lint code beside
it.  One
record of a rescale: the recorder writes a ``rescale=True`` call as its
product and its ``RESCALE``, and no pass rewrites a trace before
lowering.  One served compile: a recording on the symbolic evaluator
with a real encoder, and no service context to run it on.  One refusal
rule per op: ``repro.trace.ops.check``, run by both evaluators and the
linter.  One computation path for polynomial evaluation and the BSGS
transform: the evaluator's rows, with no ciphertext made beside them
and no copy of the level rules kept for planning or tests.  One
schedule, one plan constructor: ``repro.trace.schedule`` makes replay's
decisions in one walk, and ``ExecutablePlan(trace, name)`` validates,
lowers and checks every plan, compiled or loaded.  One walk of a plan's
blocks: its ``BlockTable``, with a profile's per-op rows folded inside
the run and no record dict per block.
Each case pins the absence of the fork it names.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import pathlib
import re
import sys

import numpy as np
import pytest

import repro.artifact
import repro.fhe
import repro.fhe.backend
import repro.gpusim
import repro.trace
from repro import engine
from repro.analysis import diagnostics
from repro.fhe import keys, modmath, noise, ntt, packing, rns
from repro.fhe.backend.base import ComputeBackend
from repro.fhe.backend.reference import ReferenceBackend
from repro.fhe.backend.stacked import StackedBackend
from repro.fhe.encoder import Plaintext
from repro.fhe.ntt import BatchedNttContext, NttContext
from repro.fhe.params import CkksParameters
from repro.fhe.poly import Polynomial
from repro.fhe.primes import is_prime
from repro.serve.server import _plan_fingerprint
from repro.workloads import compile_workload, workload_names


def test_compile_workload_takes_no_source():
    with pytest.raises(TypeError, match="source"):
        compile_workload("boot", source="legacy")


def test_a_plan_cannot_exist_without_a_trace():
    assert not hasattr(engine.ExecutablePlan, "from_graph")
    plan = compile_workload("boot", CkksParameters.test())
    with pytest.raises(TypeError, match="trace"):
        engine.ExecutablePlan(name=plan.name)


def test_runner_rejects_the_source_flag(capsys):
    from repro.experiments.runner import main
    with pytest.raises(SystemExit) as excinfo:
        main(["--list", "--source", "legacy"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --source" in capsys.readouterr().err


def test_gpusim_exports_only_what_the_timing_model_reads():
    assert sorted(repro.gpusim.__all__) == sorted([
        "GpuConfig", "mi100", "ISSUE_CYCLES", "LATENCY_SEQUENCES",
        "PAPER_TABLE4", "MicroOp", "PipelineProfile", "LdsModel",
        "ScoreboardPipeline", "measure_table4"])


def test_every_plan_has_a_fingerprint():
    """``None`` means "no plan"; a plan that cannot fingerprint is an
    error, not a server quietly exporting ``plan_fingerprint: null``."""
    for name in workload_names():
        plan = compile_workload(name, CkksParameters.test())
        assert isinstance(plan.fingerprint, str)
        assert _plan_fingerprint(plan) == plan.fingerprint
    assert _plan_fingerprint(None) is None

    class Unfingerprintable:
        provenance = None

        @property
        def fingerprint(self):
            raise ValueError("no artifact view")

    with pytest.raises(ValueError, match="no artifact view"):
        _plan_fingerprint(Unfingerprintable())


def test_mod_down_has_no_mode():
    params = CkksParameters.toy()
    for mode in ("exact", "approx"):
        with pytest.raises(TypeError, match="mod_down_mode"):
            dataclasses.replace(params, mod_down_mode=mode)
        with pytest.raises(TypeError, match="mod_down_mode"):
            rns.KeySwitchContext(params, 2, mod_down_mode=mode)
    assert "HE131" not in diagnostics.CODES
    for owner, names in (
            (rns.KeySwitchContext, ["MOD_DOWN_MODES"]),
            (rns, ["approx_moddown_quotient"]),
            (rns.RnsBasis, ["convert_approx"]),
            (modmath, ["stack_is_int64_safe"]),
            (noise, ["mod_down_error_bound", "approx_mod_down_slot_error"]),
            (ReferenceBackend, ["_lift_special_approx"]),
            (StackedBackend, ["_lift_special_sweep"])):
        for name in names:
            assert not hasattr(owner, name), name


def test_a_key_switch_context_binds_one_kernel_per_conversion():
    ksctx = rns.KeySwitchContext(CkksParameters.toy(), 5)
    for gone in ("modup_mode", "modup_int64", "modup_centered_weights",
                 "modup_matmul_safe", "moddown_lift_matrix",
                 "moddown_weights", "moddown_p_mod_q", "mod_down_mode",
                 "mont"):
        assert not hasattr(ksctx, gone), gone
    assert isinstance(ksctx.modup_matmul, modmath.BoundModMatmul)
    assert isinstance(rns.division(ksctx.extended, ksctx.num_ct).lift_matmul,
                      modmath.BoundModMatmul)


def test_one_division():
    """ModDown, ModDown·rescale and rescale are one ``round(x / D)``
    kernel, ``divide_round``, over the tables of ``rns.division``: the
    three algorithms each backend had, their per-level constants and
    ``rescale_constants`` are gone, and ``mod_down`` / ``rescale_last``
    are defined once, on the base class."""
    ksctx = rns.KeySwitchContext(CkksParameters.toy(), 5)
    for gone in ("p_inv", "p_inv_scale", "special_unpuncture",
                 "special_col", "special_half_col", "moddown_prime_fracs",
                 "moddown_lift_matmul", "moddown_lift_table", "ct_inv_col",
                 "last_p", "last_p_inv", "rest_p", "rest_pq_inv", "p_basis",
                 "ct_col"):
        assert not hasattr(ksctx, gone), gone
    for owner, names in (
            (modmath, ["rescale_constants"]),
            (rns, ["exact_moddown_quotient"]),
            (StackedBackend, ["_mod_down_rescale", "lift_special"])):
        for name in names:
            assert not hasattr(owner, name), name
    for backend in (ReferenceBackend, StackedBackend):
        defined = vars(backend)
        assert "divide_round" in defined, backend
        for name in ("mod_down", "rescale_last"):
            assert name not in defined, (backend, name)
    assert {"mod_down", "rescale_last"} <= set(vars(ComputeBackend))


def test_the_double_word_tier_has_one_product():
    """One kernel, ``_mulmod_f64``, where the 54-bit word had an emulated
    128-bit Barrett, a REDC and a Shoup multiply, each built from 32-bit
    splits; the Montgomery radix is 1 on every tier."""
    for owner, names in (
            (modmath, ["_mul64", "_mulhi64", "_barrett128",
                       "_barrett_reduce_dword", "_barrett_columns",
                       "_mulmod_dword", "_shoup_scalar", "shoup_precompute",
                       "shoup_precompute_vec", "shoup_mulmod_vec",
                       "_shoup_mulmod_u64", "_mont_mulmod_u64",
                       "_mont_columns", "mont_radix", "mont_precompute_vec",
                       "_mont_scalars", "_mont_scale", "_redc_ok"]),
            (NttContext, ["shoups", "_use_dword", "_forward_dword",
                          "_inverse_dword"])):
        for name in names:
            assert not hasattr(owner, name), name
    ctx = NttContext(CkksParameters._build(
        ring_degree=64, scale_bits=50, prime_bits=54, max_level=1,
        boot_levels=0, dnum=1, fft_iterations=1).moduli[0], 64)
    assert not {"psi_rev_shoup", "psi_inv_rev_shoup", "n_inv_shoup"} \
        & set(vars(ctx))
    assert not {"fwd_twiddle_shoups", "inv_twiddle_shoups"} \
        & set(BatchedNttContext._PER_ROW)


# -- one residue, one domain -------------------------------------------------

#: The calls that moved limbs into, out of and within the Montgomery
#: domain.
_DOMAIN_CALLS = frozenset({"to_mont", "from_mont", "mont_mul"})


def _domain_uses(tree) -> list[tuple[int, str]]:
    """``(line, what)`` for every ``.mont`` attribute, every call of a
    domain function and every definition of one in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "mont":
            found.append((node.lineno, ".mont"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if name in _DOMAIN_CALLS:
                found.append((node.lineno, f"calls {name}"))
        elif isinstance(node, ast.FunctionDef) and node.name in _DOMAIN_CALLS:
            found.append((node.lineno, f"defines {node.name}"))
    return sorted(found)


def test_the_domain_guard_sees_what_it_is_there_to_stop():
    assert _domain_uses(ast.parse(
        "if poly.mont: pass\n"
        "key = b.to_mont()\n"
        "x = from_mont(y, q)\n"
        "z = backend.mont_mul(a, b, moduli)\n"
        "def to_mont(self, a): return a\n"
        "mont = MontgomeryContext(q)\n"
        "w = self.mul(a, b) + p.montage + a_mont\n"
    )) == [(1, ".mont"), (2, "calls to_mont"), (3, "calls from_mont"),
           (4, "calls mont_mul"), (5, "defines to_mont")]


def test_one_residue_one_domain():
    """Limbs are plain residues everywhere: no ``Polynomial.mont`` flag,
    no conversions, no Montgomery aliases in ``modmath``, one prepared
    plaintext entry per (basis, backend).  The scalar REDC oracle stays,
    and so do two stubs on ``StackedBackend`` that ``bench``'s span probes
    wrap by name; nothing under ``src/`` calls either."""
    assert "mont" not in Polynomial.__slots__
    for owner, names in (
            (Polynomial, ["mont", "to_mont", "from_mont", "drop_last_limb",
                          "scalar_mul_per_limb"]),
            (modmath, ["to_mont_vec", "from_mont_vec", "to_mont_stack",
                       "from_mont_stack", "_identity", "mont_mulmod_vec",
                       "mont_mulmod_stack"]),
            (ComputeBackend, sorted(_DOMAIN_CALLS)),
            (ReferenceBackend, sorted(_DOMAIN_CALLS)),
            (StackedBackend, ["from_mont"])):
        for name in names:
            assert not hasattr(owner, name), (owner.__name__, name)
    assert "mont" not in inspect.signature(Plaintext.as_eval).parameters
    uses = {f"{path.relative_to(SRC)}: {what}"
            for path in sorted(SRC.rglob("*.py"))
            for _, what in _domain_uses(
                ast.parse(path.read_text(encoding="utf-8")))}
    assert uses == {"repro/fhe/backend/stacked.py: defines mont_mul",
                    "repro/fhe/backend/stacked.py: defines to_mont",
                    "repro/fhe/modmath.py: defines to_mont",
                    "repro/fhe/modmath.py: defines from_mont"}, uses


def test_a_stacked_transform_has_one_algorithm():
    for gone in ("_forward_generic", "_inverse_generic", "_generic_twiddles",
                 "_bind_shoup"):
        assert not hasattr(BatchedNttContext, gone), gone
    assert not {"psi_rev", "psi_inv_rev", "n_inv_col", "psi_rev_shoup",
                "psi_inv_rev_shoup", "n_inv_shoup_col"} \
        & set(BatchedNttContext._PER_ROW)
    moduli = CkksParameters.toy().moduli[:2]
    assert not hasattr(BatchedNttContext(moduli, 1 << 10), "psi_rev")
    assert not hasattr(NttContext(moduli[0], 1 << 10), "mont")


# -- two dtype tiers ---------------------------------------------------------

#: What the object-dtype tier of residues was made of.
_OBJECT_TIER = ("force_object_dtype", "_OBJECT_ONLY", "_stack_native_ok",
                "stack_is_native", "_as_object_array", "_is_native",
                "_is_int64_safe", "limb_dtype")


def test_every_residue_is_int64_on_one_of_two_tiers():
    """No object tier and no flag that forces one: ``src/`` neither
    defines nor names any of its pieces, a kernel tier is ``int64`` or
    ``dword``, and a modulus past the double-word ceiling — the largest
    prime below 2**62 — is refused by the parameters and by every kernel
    it could reach, not run on Python integers."""
    for name in _OBJECT_TIER:
        assert not hasattr(modmath, name), name
    named = {f"{path.relative_to(SRC)}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for name in _OBJECT_TIER
             if re.search(rf"\b{name}\b", path.read_text(encoding="utf-8"))}
    assert not named, named
    toy, paper = CkksParameters.toy(), CkksParameters.paper()
    assert {modmath.native_class(q) for q in (3, (1 << 31) - 1, 1 << 31,
                                              (1 << 56) - 1)} \
        == {modmath.stack_native_class(toy.moduli),
            modmath.stack_native_class(paper.moduli)} == {"int64", "dword"}
    wide = (1 << 62) - 57
    assert is_prime(wide) and not any(map(is_prime, range(wide + 2, 1 << 62,
                                                          2)))
    refused = re.escape(f"modulus {wide} is 2**56 or more")
    for build in (lambda: dataclasses.replace(toy, moduli=(*toy.moduli,
                                                           wide)),
                  lambda: NttContext(wide, 4),
                  lambda: modmath.BoundScalarMul([1], [wide]),
                  lambda: modmath.native_class(wide),
                  lambda: modmath.stack_native_class((3, wide))):
        with pytest.raises(ValueError, match=refused):
            build()


def test_the_table_cache_keys_a_modulus_and_a_degree():
    ntt.ntt_context(CkksParameters.toy().moduli[0], 1 << 10)
    ntt.batched_ntt_context(CkksParameters.toy().moduli, 1 << 10)
    keys = list(ntt._TABLE_CACHE._entries)
    assert keys and all(len(key) == 2 for key in keys), keys


# -- one op table ------------------------------------------------------------

def _is_opkind(node) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "OpKind")


def _kinds_in(nodes) -> int:
    return sum(_is_opkind(node) for node in nodes if node is not None)


def _kind_tests(function) -> int:
    """``OpKind`` members a function compares against with ``is`` /
    ``is not`` / ``in`` / ``not in`` (each member of a tuple counts)."""
    count = 0
    for node in ast.walk(function):
        if not isinstance(node, ast.Compare):
            continue
        for op, right in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn)):
                continue
            count += _kinds_in(right.elts if isinstance(
                right, (ast.Tuple, ast.List, ast.Set)) else [right])
    return count


def _per_kind_switches(tree):
    """``(line, what)`` for every per-kind table or ladder in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and _kinds_in(node.keys) >= 3:
            yield node.lineno, "dict keyed by OpKind members"
        elif isinstance(node, ast.Set) and _kinds_in(node.elts) >= 3:
            yield node.lineno, "set of OpKind members"
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id in ("set", "frozenset") and node.args
              and isinstance(node.args[0], (ast.List, ast.Tuple))
              and _kinds_in(node.args[0].elts) >= 3):
            yield node.lineno, "set of OpKind members"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and _kind_tests(node) >= 4:
            yield node.lineno, f"{node.name}() switches on OpKind"


def test_the_guard_sees_what_it_is_there_to_stop():
    found = sorted(_per_kind_switches(ast.parse(
        "BLOCKS = {OpKind.A: 1, OpKind.B: 2, OpKind.C: 3}\n"
        "KINDS = frozenset({OpKind.A, OpKind.B, OpKind.C})\n"
        "ALSO = frozenset([OpKind.A, OpKind.B, OpKind.C])\n"
        "def replay(op):\n"
        "    if op.kind is OpKind.A: return 1\n"
        "    if op.kind in (OpKind.B, OpKind.C): return 2\n"
        "    if op.kind is not OpKind.D: return 3\n"
        "def fine(op):\n"
        "    return op.kind in (OpKind.A, OpKind.B) or op.kind is OpKind.C\n"
        "PAIR = {OpKind.A, OpKind.B}\n")))
    assert found == [(1, "dict keyed by OpKind members"),
                     (2, "set of OpKind members"),
                     (3, "set of OpKind members"),
                     (4, "replay() switches on OpKind")]


def test_only_the_op_table_knows_what_an_op_is():
    """No dict / set of three or more ``OpKind`` members and no function
    testing four or more of them outside ``trace/ops.py``: a new per-kind
    fact is a column of ``OPS``, not a switch at the site that needs it."""
    root = pathlib.Path(repro.trace.__file__).parents[1]
    offenders, references = [], 0
    for path in sorted(root.rglob("*.py")):
        if path == root / "trace" / "ops.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.relative_to(root)}:{line}: {what}"
                      for line, what in _per_kind_switches(tree)]
        references += _kinds_in(ast.walk(tree))
    assert not offenders, "\n".join(offenders)
    assert references <= 40, references     # 109 before the table


def test_the_per_kind_tables_and_ladders_are_gone():
    from repro.analysis import checks
    from repro.trace import ir, lowering, symbolic
    for owner, names in (
            (lowering, ["KIND_TO_BLOCK", "_KIND_STEM"]),
            (ir, ["KEYSWITCH_KINDS", "TRANSPARENT_KINDS"]),
            (repro.trace, ["KIND_TO_BLOCK", "KEYSWITCH_KINDS",
                           "TRANSPARENT_KINDS", "SymbolicHoisted"]),
            (checks, ["_ADDITIVE_KINDS", "_MULTIPLICATIVE_KINDS",
                      "_expected_out_level"]),
            (symbolic, ["SymbolicHoisted"]),
            (repro.trace.TracingEvaluator, ["_ks_meta", "_record",
                                            "_attach_payload"])):
        for name in names:
            assert not hasattr(owner, name), name


# -- one fast path, one plain oracle -----------------------------------------

SRC = pathlib.Path(repro.trace.__file__).parents[2]


def _setup_keyword(name: str):
    """A literal keyword argument of ``setup.py``'s ``setup(...)`` call."""
    tree = ast.parse((SRC.parent / "setup.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") \
                == "setup":
            return ast.literal_eval(next(
                kw.value for kw in node.keywords if kw.arg == name))
    raise AssertionError("setup.py calls no setup()")


def test_two_backends_and_no_gate():
    from repro.fhe.backend import registry
    # Tests and ``bench`` register instrumented subclasses of their own.
    shipped = tuple(sorted(name for name, cls in registry._REGISTRY.items()
                           if cls.__module__.startswith("repro.")))
    assert shipped == ("reference", "stacked")
    for owner in (registry, repro.fhe.backend, repro.fhe):
        for gone in ("register_gated_backend", "gated_backends", "_GATED",
                     "BackendUnavailableWarning"):
            assert not hasattr(owner, gone), (owner.__name__, gone)
    assert not hasattr(repro.fhe.backend, "accel")
    assert "accel" not in _setup_keyword("extras_require")


def test_the_exact_crt_has_one_composition_and_no_word_planes():
    for owner, names in (
            (modmath, ["split_words", "join_words", "add_planes",
                       "sub_planes", "horner_fold_mod"]),
            (rns.RnsBasis, ["_compose_planes", "_hat_word_planes",
                            "_q_word_planes", "_compose_total_vec",
                            "_scaled_ys"])):
        for name in names:
            assert not hasattr(owner, name), name
    basis = rns.RnsBasis(list(CkksParameters.toy().special_moduli))
    assert not {"_hat_planes", "_q_planes"} & set(vars(basis))


def _imports(tree):
    """``(line, module)`` for every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        yield from ((node.lineno, module) for module in modules)


def _foreign_imports(tree, allowed) -> list[tuple[int, str]]:
    """``(line, module)`` for every absolute import outside ``allowed``."""
    return [(line, module) for line, module in _imports(tree)
            if module.split(".")[0] not in allowed]


def test_src_imports_only_what_an_install_provides():
    """Every import under ``src/`` is the standard library, ``repro``
    itself or a requirement ``setup.py`` installs — so code this
    container cannot run (an optional JIT, a graph library the tests
    happen to have) cannot come back unnoticed."""
    requires = {re.split(r"[^A-Za-z0-9_.-]", req, maxsplit=1)[0]
                for req in _setup_keyword("install_requires")}
    assert requires == {"numpy"}
    allowed = sys.stdlib_module_names | requires | {"repro"}
    assert _foreign_imports(ast.parse(
        "import os, numba\nfrom networkx import DiGraph\n"
        "from . import x\nimport numpy.linalg\nfrom repro.fhe import rns\n"
    ), allowed) == [(1, "numba"), (2, "networkx")]
    offenders = [f"{path.relative_to(SRC)}:{line}: imports {module}"
                 for path in sorted(SRC.rglob("*.py"))
                 for line, module in _foreign_imports(
                     ast.parse(path.read_text(encoding="utf-8")), allowed)]
    assert not offenders, "\n".join(offenders)


# -- one on-disk form of a program -------------------------------------------

def test_rpa_is_the_only_trace_serialization_and_one_diff():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.trace.diff")
    for gone in ("save_jsonl", "load_jsonl", "save_binary", "load_binary"):
        assert not hasattr(repro.trace.OpTrace, gone), gone
    for gone in ("load_any", "trace_view", "run_diff"):
        assert not hasattr(repro.artifact, gone), gone
        assert gone not in repro.artifact.__all__


def test_a_plan_artifact_is_its_trace():
    """``.rpa`` stores no block graph: ``load_plan`` lowers the trace, and
    the block id the graph had stays retired."""
    from repro.artifact import columnar, reader
    for gone in ("encode_dag", "decode_dag", "_ks_encodable",
                 "_NODE_COLUMNAR_KEYS"):
        assert not hasattr(columnar, gone), gone
    assert "graph" not in {f.name for f in dataclasses.fields(
        reader.Artifact)}
    assert "DAG" not in repro.artifact.ArtifactBlockType.__members__
    assert 3 not in {int(t) for t in repro.artifact.ArtifactBlockType}
    assert 3 not in reader.BLOCK_HANDLERS


# -- one record of a hoist ---------------------------------------------------

def test_a_hoist_is_its_data_flow():
    """No hoist op, column, handle or lint code: the schedule's Galois
    groups are the one decision, and replay and the op-mix report both
    read them."""
    from repro.analysis import report
    from repro.artifact.columnar import encode_trace_ops
    from repro.artifact.format import unpack_arrays
    from repro.trace import ops
    assert "HOIST" not in repro.trace.OpKind.__members__
    assert "hoisted_method" not in {
        f.name for f in dataclasses.fields(ops.OpSpec)}
    assert not hasattr(ops, "hoisted_input_problems")
    assert "HE130" not in diagnostics.CODES
    assert not hasattr(repro.fhe, "HoistedCiphertext")
    for cls in (repro.fhe.CkksEvaluator, repro.trace.TracingEvaluator,
                repro.trace.SymbolicEvaluator):
        for name in ("hoist", "rotate_hoisted", "conjugate_hoisted"):
            assert not hasattr(cls, name), (cls, name)
    assert not hasattr(repro.trace, "infer_hoist_groups")
    assert "hoist_group" not in {
        f.name for f in dataclasses.fields(repro.trace.TraceOp)}
    assert engine.ExecutablePlan.__module__ == "repro.engine.plan"
    assert sys.modules["repro.engine.plan"].schedule is ops.schedule
    assert report.schedule is ops.schedule
    assert repro.artifact.diffing.schedule is ops.schedule
    trace = compile_workload("boot", CkksParameters.paper()).trace
    _, columns = unpack_arrays(encode_trace_ops(trace))
    assert not {"hoist_group", "meta_hoisted"} & set(columns)
    assert not any({"hoisted", "inferred_hoist"} & set(op.meta)
                   for op in trace.ops)


def test_one_hoisted_rotations():
    """The batch is hoisted once, by the real evaluator; the recorder
    delegates to it and writes plain rotations, and the symbolic
    evaluator has nothing to hoist."""
    shared = repro.fhe.CkksEvaluator.hoisted_rotations
    assert repro.trace.TracingEvaluator.hoisted_rotations is not shared
    assert repro.trace.SymbolicEvaluator.hoisted_rotations is not shared
    recorder = repro.trace.TracingEvaluator(
        repro.trace.SymbolicEvaluator(CkksParameters.toy()))
    recorder.hoisted_rotations(recorder.fresh(), [0, 1, 2])
    assert [op.kind.value for op in recorder.trace.ops] \
        == ["source", "copy", "he_rotate", "he_rotate"]


# -- one record of a rescale -------------------------------------------------

def test_a_rescale_is_recorded_unfused():
    """No pass pipeline and no second lowering: what the recorder writes
    is what lowers, replays and lints, and no recorded op is a product
    and its rescale in one."""
    from repro.serve.workloads import scoring_workload
    for module in (repro.trace, repro.trace.invariants, repro.trace.lowering):
        for gone in ("expand_implicit_rescales", "lower_expanded_trace",
                     "run_passes", "DEFAULT_PASSES"):
            assert not hasattr(module, gone), (module.__name__, gone)
    assert "passes" not in inspect.signature(
        engine.ExecutablePlan).parameters
    toy = CkksParameters.toy()
    assert not hasattr(engine.ExecutablePlan(
        repro.trace.OpTrace(toy), "empty"), "passes")
    assert "passes" not in inspect.signature(engine.compile).parameters
    scoring = scoring_workload(16).build_program(
        scoring_workload(16).layout(toy))

    def affine(ev, ct):
        """``bench``'s key-switch-free lane: ``(x*a + b)*c + d``."""
        encode, a = ev.encoder.encode, np.full(toy.num_slots, 0.5)
        y = ev.poly_mult(ct, encode(a), rescale=True)
        y = ev.poly_add(y, encode(a, y.scale))
        y = ev.poly_mult(y, encode(a), rescale=True)
        return ev.poly_add(y, encode(a, y.scale))

    served = [engine.compile(lambda ev, body=body: body(
        ev, ev.fresh(level=toy.max_level)), toy, name=name)
        for name, body in (("scoring", scoring), ("affine", affine))]
    for plan in served:     # two ``rescale=True`` calls each
        assert [op.kind for op in plan.trace.ops].count(
            repro.trace.OpKind.RESCALE) == 2, plan.name
    for plan in served + [compile_workload(name, CkksParameters.test())
                          for name in workload_names()]:
        assert not any(op.meta.get("rescaled") for op in plan.trace.ops), \
            plan.name


#: What the IR would need to write files again.
_FILE_MODULES = frozenset({"json", "os", "tempfile"})


def _file_imports(tree) -> list[tuple[int, str]]:
    """``(line, module)`` for every import of a file-writing module."""
    return sorted((line, module) for line, module in _imports(tree)
                  if module.split(".")[0] in _FILE_MODULES)


def test_the_file_guard_sees_what_it_is_there_to_stop():
    assert _file_imports(ast.parse(
        "import json\nimport os.path\nfrom tempfile import mkstemp\n"
        "import enum, os\nfrom . import json\nfrom jsonschema import x\n"
        "def f():\n    import json as j\n"
    )) == [(1, "json"), (2, "os.path"), (3, "tempfile"), (4, "os"),
           (8, "json")]


def test_the_trace_ir_does_not_touch_disk():
    """No module under ``repro/trace/`` imports ``json``, ``os`` or
    ``tempfile``: a trace reaches disk only through ``repro.artifact``."""
    root = pathlib.Path(repro.trace.__file__).parent
    offenders = [f"{path.name}:{line}: imports {module}"
                 for path in sorted(root.rglob("*.py"))
                 for line, module in _file_imports(
                     ast.parse(path.read_text(encoding="utf-8")))]
    assert not offenders, "\n".join(offenders)


# -- one harness per question ------------------------------------------------

def test_every_floor_is_a_test_id():
    """No exporter script asserts a floor beside the test suites, and CI
    uploads no JSON: a floor is a test under ``tests/`` or
    ``benchmarks/``, an end-to-end number is a ``bench`` row."""
    root = SRC.parent
    assert not sorted(root.glob("benchmarks/export_*.py"))
    ci = (root / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    for gone in ("benchmarks/export_", "upload-artifact", "BENCH_"):
        assert gone not in ci, gone


# -- one encryption ----------------------------------------------------------

def test_the_key_owner_encrypts_and_there_is_no_public_key():
    """Every caller decrypts with the key it encrypts under, so encryption
    is the secret-key form: no ``PublicKey`` class or export, and a key
    generator neither builds nor holds a public key."""
    assert not hasattr(repro.fhe, "PublicKey")
    assert "PublicKey" not in repro.fhe.__all__
    assert not hasattr(keys, "PublicKey")
    for gone in ("public_key", "_make_public_key"):
        assert not hasattr(keys.KeyGenerator, gone), gone
    keygen = keys.KeyGenerator(CkksParameters.toy(), seed=1)
    assert not hasattr(keygen, "public_key")


# -- one switching key per id ------------------------------------------------

def test_a_switching_key_is_named_by_its_id_alone():
    """A key is named by its id and drawn over the CRT-idempotent
    gadget: it stores no level or digit layout (its level is read off
    its basis), the key-switch tables hold no digit scaling, a key
    getter takes the level it must serve and nothing else, and digit
    decomposition is one limb-slicing method shared by both backends."""
    assert {field.name for field in dataclasses.fields(keys.SwitchingKey)} \
        == {"bs", "as_"}
    assert isinstance(keys.SwitchingKey.level, property)
    ksctx = rns.KeySwitchContext(CkksParameters.toy(), 5)
    for gone in ("digit_scale", "digit_hat", "digit_hat_inv"):
        assert not hasattr(ksctx, gone), gone
    for getter, head in (("relinearization_key", ["self"]),
                         ("rotation_key", ["self", "rotation"]),
                         ("conjugation_key", ["self"])):
        signature = inspect.signature(getattr(keys.KeyGenerator, getter))
        assert list(signature.parameters) == head + ["level"], getter
    assert not hasattr(keys.KeyGenerator, "digit_spans")
    assert not hasattr(keys, "mod_down")
    assert list(inspect.signature(keys.key_switch).parameters) \
        == ["poly", "key"]
    for backend in (ReferenceBackend, StackedBackend):
        assert "digit_decompose" not in vars(backend), backend.__name__


def test_a_single_key_is_a_batch_of_one(monkeypatch):
    """Every switching key comes out of one batch generator: the getters
    are one-id calls of ``switching_keys``, and the per-key generator is
    gone."""
    for gone in ("_generate_switching_key", "_switching_key"):
        assert not hasattr(keys.KeyGenerator, gone), gone
    asked = []
    monkeypatch.setattr(
        keys.KeyGenerator, "switching_keys",
        lambda self, ids, level=None: asked.append((list(ids), level))
        or [None])
    keygen = repro.fhe.CkksContext(CkksParameters.toy(), seed=1).keygen
    keygen.relinearization_key()
    keygen.rotation_key(5, 3)
    keygen.conjugation_key(2)
    assert asked == [(["relin"], None), (["rot-5"], 3), (["conj"], 2)]


# -- one served compile -------------------------------------------------------

def test_a_served_plan_is_recorded_on_no_service_context():
    """A served workload compiles by recording its program symbolically
    (``ServedWorkload._compile_at``): it takes no options for a compile
    context, and nothing under ``repro/serve/`` names the ``"_service"``
    tenant whose context the compile once ran on."""
    from repro.serve.workloads import ServedWorkload

    fields = {field.name for field in dataclasses.fields(ServedWorkload)}
    assert "compile_kwargs" not in fields
    root = SRC / "repro" / "serve"
    offenders = [path.name for path in sorted(root.rglob("*.py"))
                 if re.search(r"[\"']_service[\"']",
                              path.read_text(encoding="utf-8"))]
    assert not offenders, offenders


# -- one refusal rule per op --------------------------------------------------

def test_both_evaluators_and_the_linter_refuse_through_one_check():
    """Neither evaluator restates a precondition of ``repro.trace.ops.
    check`` and the linter keeps no second tolerance or degree-2 walk;
    the real evaluator has only the rows that replay."""
    from repro.analysis import checks
    from repro.fhe.evaluator import CkksEvaluator
    for owner, names in (
            (CkksEvaluator, ["_check_scale", "_check_rescalable", "_align",
                             "refresh", "mod_raise"]),
            (checks, ["check_relinearization", "ADD_SCALE_TOLERANCE_LOG2"]),
            (repro.analysis, ["check_relinearization"]),
            (repro.fhe.ciphertext, ["require_relinearized"])):
        for name in names:
            assert not hasattr(owner, name), name
    for path in (SRC / "repro" / "fhe" / "evaluator.py",
                 SRC / "repro" / "trace" / "symbolic.py"):
        assert "require_relinearized" not in path.read_text(
            encoding="utf-8"), path.name


# -- one computation path for the library -------------------------------------

#: A numeric literal in e-notation on a line that reads a scale.
_SCALE_LITERAL = re.compile(r"scale.*\d(\.\d*)?[eE]-\d|\d(\.\d*)?[eE]-\d.*scale")


def test_the_scale_literal_guard_sees_what_it_is_there_to_stop():
    assert _SCALE_LITERAL.search(
        "needs_adjust = abs(ct.scale - scale) > 1e-9 * max(ct.scale, scale)")
    assert not _SCALE_LITERAL.search("COEFF_TOLERANCE = 1e-13")


def test_polyval_and_the_bsgs_transform_compute_through_the_rows():
    """``fhe/polyval.py`` and ``fhe/linear.py`` build no ciphertext from
    components, run no guard of their own and restate no scale
    tolerance: each step is an evaluator call.  The monomial cache on
    the evaluator, the planner that restated the level rules
    (``LevelBudget``) and the packing wrappers only tests called are
    gone."""
    for name in ("polyval.py", "linear.py"):
        text = (SRC / "repro" / "fhe" / name).read_text(encoding="utf-8")
        assert "Ciphertext(" not in text, name
        assert "require_relinearized" not in text, name
        assert not _SCALE_LITERAL.search(text), name
    gone = re.compile(r"\b(_monomial_cache|LevelBudget|mask_slots|"
                      r"inner_product|matrix_vector|measure_fresh_noise)\b")
    offenders = [f"{path.relative_to(SRC)}:{number}"
                 for path in sorted(SRC.rglob("*.py"))
                 for number, line in enumerate(
                     path.read_text(encoding="utf-8").splitlines(), 1)
                 if gone.search(line)]
    assert not offenders, offenders
    assert "LevelBudget" not in repro.fhe.__all__
    for owner, names in ((noise, ["LevelBudget", "measure_fresh_noise"]),
                         (packing, ["mask_slots", "inner_product",
                                    "matrix_vector"])):
        for name in names:
            assert not hasattr(owner, name), name


# -- one schedule, one plan constructor ---------------------------------------

def test_replay_reads_one_schedule():
    """Replay's decisions are one ``Schedule``: the plan caches nothing
    else, the op table keeps no per-decision walk and the trace no key
    walk."""
    from repro.trace import ops
    for gone in ("_key_ids", "_key_level", "_fused", "_galois_reads",
                 "entry_level", "_ops_by_id", "program"):
        assert not hasattr(engine.ExecutablePlan, gone), gone
    assert isinstance(engine.ExecutablePlan.schedule,
                      functools.cached_property)
    for gone in ("galois_groups", "fused_rescales"):
        assert not hasattr(ops, gone), gone
    for gone in ("keyswitch_ops", "keys_used"):
        assert not hasattr(repro.trace.OpTrace, gone), gone
    assert repro.trace.schedule is ops.schedule
    plan = compile_workload("boot", CkksParameters.test())
    for gone in ("program", "_ops_by_id"):
        assert not hasattr(plan, gone), gone


def test_a_plan_is_made_one_way():
    """``ExecutablePlan(trace, name)`` validates, lowers and checks the
    DAG; no helper builds a plan beside it and nothing hands it a
    graph."""
    from repro.engine import plan
    assert list(inspect.signature(engine.ExecutablePlan).parameters) \
        == ["trace", "name"]
    assert not hasattr(plan, "_plan")


# -- one home for a bit pin ---------------------------------------------------

TESTS = SRC.parent / "tests"
_HEX64 = re.compile(r"\b[0-9a-f]{64}\b")
#: ``pins.pw54``'s arguments, as written.
_PW54 = {"ring_degree": "1 << 10", "scale_bits": "50", "prime_bits": "54",
         "max_level": "5", "boot_levels": "2", "dnum": "2",
         "fft_iterations": "1"}


def _pin_forks(source: str) -> list[str]:
    """What a module holds beside the one pin table: a sha256 literal, a
    ``__main__`` recorder, a ``pw54`` preset, or an import from the test
    module that once lent its presets and digest out."""
    found = ["sha256 literal"] if _HEX64.search(source) else []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) \
                and ast.unparse(node) == "__name__ == '__main__'":
            found.append("__main__ recorder")
        elif isinstance(node, ast.FunctionDef) \
                and node.name.strip("_") == "pw54":
            found.append("pw54 preset")
        elif isinstance(node, ast.Call) and _PW54.items() <= {
                (kw.arg, ast.unparse(kw.value))
                for kw in node.keywords}:
            found.append("pw54 preset")
        elif isinstance(node, ast.ImportFrom) \
                and node.module == "test_parent_digests":
            found.append("test_parent_digests import")
    return found


def test_the_pin_guard_sees_what_it_is_there_to_stop():
    assert _pin_forks(f'PIN = "{"ab" * 32}"') == ["sha256 literal"]
    assert _pin_forks('if __name__ == "__main__":\n    print()\n') \
        == ["__main__ recorder"]
    assert _pin_forks("def _pw54():\n    return CkksParameters._build("
                      + ", ".join(f"{k}={v}" for k, v in _PW54.items())
                      + ")\n") == ["pw54 preset", "pw54 preset"]
    assert _pin_forks("from test_parent_digests import PRESETS, _digest\n") \
        == ["test_parent_digests import"]
    assert sorted(_pin_forks((TESTS / "pins.py").read_text(
        encoding="utf-8"))) == ["__main__ recorder", "pw54 preset",
                                "pw54 preset"]


def test_every_bit_pin_reads_the_one_table():
    """Every sha256 pin is a line of ``tests/pins.json``, rewritten by the
    one recorder (``python -m tests.pins --record``); ``pins.pw54`` is
    the one ``pw54`` preset.  The simulator's model rows
    (``test_parent_cycles.py``) and the byte budgets
    (``test_byte_budget.py``) keep their own tables and recorders."""
    own = {"pins.py", "test_parent_cycles.py", "test_byte_budget.py"}
    offenders = {str(path.relative_to(TESTS)): forks
                 for path in sorted(TESTS.rglob("*.py"))
                 if path.name not in own
                 and (forks := _pin_forks(path.read_text(encoding="utf-8")))}
    assert not offenders, offenders


def test_two_dead_entry_points_are_gone():
    """Nothing called the batch linter or the plan-cache count."""
    from repro import analysis, serve
    from repro.analysis import checks
    from repro.serve import cache
    for owner, name in ((analysis, "lint_traces"), (checks, "lint_traces"),
                        (serve, "plan_cache_stats"),
                        (cache, "plan_cache_stats")):
        assert not hasattr(owner, name), name
        assert name not in getattr(owner, "__all__", ()), name


# -- one block table per plan -------------------------------------------------

class _Untouchable:
    """A graph no run may read."""

    def __getattr__(self, name):
        raise AssertionError(f"a run read graph.{name}")


def test_a_run_walks_one_block_table_and_makes_no_record_per_block():
    """A simulate or profile walks the plan's :class:`BlockTable` — no
    node attribute dict, block metadata or edge dict per block — and a
    profile folds its per-op rows inside the run: no ``record`` list of
    one dict per block is made and read back."""
    from repro.blocksim import BlockGraphSimulator, BlockTable
    from repro.gme.features import GME_FULL
    assert list(inspect.signature(BlockGraphSimulator.run).parameters) \
        == ["self", "blocks", "name", "order", "per_op"]
    assert "record" not in inspect.signature(
        engine.ExecutablePlan._run).parameters
    walks = "".join(inspect.getsource(method) for method in (
        BlockGraphSimulator.run, engine.ExecutablePlan._run,
        engine.ExecutablePlan.profile))
    for gone in ("record", "start_cycle", "end_cycle", "graph.nodes[",
                 "graph.pred[", ".metadata", 'get("bytes"'):
        assert gone not in walks, gone
    plan = compile_workload("helr", CkksParameters.test())
    table = BlockTable(plan.graph)
    sim = BlockGraphSimulator(GME_FULL, params=plan.params)
    order = sim._order(table)
    table.graph = _Untouchable()
    per_op: dict = {}
    metrics = sim.run(table, "helr", order=order, per_op=per_op)
    assert metrics.cycles == plan.simulate(GME_FULL).cycles
    assert sum(row[0] for row in per_op.values()) == len(table.rows) \
        == plan.num_blocks
