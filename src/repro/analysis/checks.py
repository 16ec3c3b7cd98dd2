"""Static checks over :class:`~repro.trace.OpTrace` programs.

Each ``check_*`` function walks one trace and returns the
:class:`~repro.analysis.diagnostics.Diagnostic` findings of one concern;
:func:`lint_trace` composes them into a
:class:`~repro.analysis.diagnostics.DiagnosticReport`.  All checks are
*static*: they abstract-interpret the recorded levels/scales/keys, never
touching ciphertexts, so linting the paper-scale catalog takes
milliseconds (the traces come from the symbolic evaluator).

The checks trust the trace to be structurally sound (dense op ids,
inputs referencing earlier ops).  :func:`check_structure` verifies that
first and reports ``HE050``; when it fails, the data-flow checks are
skipped rather than crash on dangling references.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from repro.fhe.noise import NOISE_FLOOR_LOG2, result_headroom
from repro.fhe.params import CkksParameters
from repro.trace.ir import OpKind, OpTrace, TraceOp
from repro.trace.ops import (MAX_SCALE, OPS, expected_out_level, key_id,
                             structural_problems, switches_key)

from .diagnostics import Diagnostic, DiagnosticReport, make

#: Additions tolerate this much log2-scale mismatch between operands
#: before HE011 fires.  Rescale drift at 30-bit toy moduli is ~1 bit per
#: level; 8 bits of headroom keeps every catalog workload clean while a
#: genuinely missing rescale (a full Delta of mismatch) still trips.
ADD_SCALE_TOLERANCE_LOG2 = 8.0

#: HE110 fires when a rescale output's scale drifts from Delta by more
#: than this many bits.  Chained toy-modulus rescales drift ~1 bit each;
#: 4 bits flags only sustained one-directional drift.
RESCALE_DRIFT_TOLERANCE_LOG2 = 4.0

#: What a key-switch op with a fixed key id is called in HE020.
_FIXED_KEY_WORDS = {"relin": ("multiply", "products"),
                    "conj": ("conjugate", "conjugation")}


def _log2_q_at(params: CkksParameters, level: int) -> float:
    """Log2 of the ciphertext modulus at ``level`` (limbs 0..level)."""
    return sum(math.log2(q) for q in params.moduli[:level + 1])


def _log2_scale(op: TraceOp) -> float | None:
    if op.out_scale and op.out_scale > 0:
        return math.log2(op.out_scale)
    return None


# ---------------------------------------------------------------------------
# structure (HE050)

def check_structure(trace: OpTrace) -> list[Diagnostic]:
    """HE050: structural invariants every other check relies on."""
    findings: list[Diagnostic] = []
    for position, op in enumerate(trace.ops):
        findings.extend(make("HE050", problem, op)
                        for problem in structural_problems(op, position))
    if (trace.output_op_id is not None
            and not 0 <= trace.output_op_id < len(trace.ops)):
        findings.append(make(
            "HE050", f"output_op_id {trace.output_op_id} is not an op "
            "of the trace"))
    return findings


# ---------------------------------------------------------------------------
# levels (HE001/HE002/HE003)

def check_levels(trace: OpTrace) -> list[Diagnostic]:
    """Level/depth budget: every level reachable, no underflow."""
    findings: list[Diagnostic] = []
    params = trace.params
    max_level = params.max_level
    for op in trace.ops:
        if op.level > max_level or op.out_level > max_level:
            findings.append(make(
                "HE003", f"level {max(op.level, op.out_level)} exceeds "
                f"max_level {max_level} of the parameter set", op))
            continue
        if op.level < 0 or op.out_level < 0:
            findings.append(make(
                "HE001", f"level {min(op.level, op.out_level)} is below "
                "0; the modulus chain is exhausted before the program "
                "ends", op))
            continue
        if op.kind is OpKind.RESCALE and op.level == 0:
            findings.append(make(
                "HE001", "rescale at level 0 has no limb left to drop",
                op))
            continue
        # operating level must match the aligned operand levels
        if op.inputs and op.kind is not OpKind.REFRESH:
            operand_level = min(trace.op(i).out_level for i in op.inputs)
            if op.level != operand_level:
                findings.append(make(
                    "HE002", f"operating level {op.level} but operands "
                    f"sit at level {operand_level}", op))
                continue
        # output level must follow the kind's rule
        expected = expected_out_level(OPS[op.kind], op.level, op.meta,
                                      max_level)
        if expected is not None and op.out_level != expected:
            findings.append(make(
                "HE002", f"out_level {op.out_level} but a "
                f"{op.kind.value} at level {op.level} must produce "
                f"level {expected}", op))
    return findings


# ---------------------------------------------------------------------------
# scale management (HE010/HE011/HE110) and noise floor (HE030)

def check_scales(trace: OpTrace) -> list[Diagnostic]:
    """Abstract-interpret the scale; flag overflow, mismatch, drift.

    A program that passes ``rescale=False`` at an evaluator surface
    offering a fused rescale has *declared* manual scale management at
    that op (the catalog's shape-only workload programs do this
    throughout — their symbolic scales model op counts, not numerics).
    The checker honors the declaration: the op's value is marked
    unmanaged and scale findings are suppressed along its data flow
    until a rescale or refresh lands the scale back within drift
    tolerance of Delta.  Ops that simply *omit* a rescale — no
    declaration recorded — are checked in full, which is exactly the
    missing-rescale defect HE010 exists for.
    """
    findings: list[Diagnostic] = []
    params = trace.params
    scale_bits = float(params.scale_bits)
    unmanaged: set[int] = set()
    for op in trace.ops:
        log_scale = _log2_scale(op)
        tainted = any(i in unmanaged for i in op.inputs)
        if (tainted and op.kind in (OpKind.RESCALE, OpKind.REFRESH)
                and log_scale is not None
                and abs(log_scale - scale_bits)
                <= RESCALE_DRIFT_TOLERANCE_LOG2):
            tainted = False  # scale is back under management
        if op.meta.get("rescaled") is False:
            tainted = True  # declared rescale opt-out
        if tainted:
            unmanaged.add(op.op_id)
            continue
        if log_scale is None:
            continue  # scale-free op (bootstrap plumbing, untracked)
        if not 0 <= op.out_level <= params.max_level:
            continue  # already an HE001/HE003 finding
        log_q = _log2_q_at(params, op.out_level)
        if log_scale >= log_q:
            findings.append(make(
                "HE010", f"scale 2^{log_scale:.1f} meets the level-"
                f"{op.out_level} modulus 2^{log_q:.1f}; a rescale is "
                "missing upstream", op))
            continue
        if log_scale < NOISE_FLOOR_LOG2:
            findings.append(make(
                "HE030", f"scale 2^{log_scale:.1f} is below the "
                f"2^{NOISE_FLOOR_LOG2:.0f} noise floor; the message is "
                "lost in rescale rounding noise", op))
            continue
        if OPS[op.kind].scale is MAX_SCALE:
            in_scales = [s for s in (_log2_scale(trace.op(i))
                                     for i in op.inputs)
                         if s is not None]
            if len(in_scales) == 2:
                lo, hi = sorted(in_scales)
                if hi - lo > ADD_SCALE_TOLERANCE_LOG2:
                    findings.append(make(
                        "HE011", f"operand scales 2^{lo:.1f} and "
                        f"2^{hi:.1f} differ by {hi - lo:.1f} bits "
                        f"(tolerance {ADD_SCALE_TOLERANCE_LOG2:.0f})",
                        op))
                    continue
        if (op.kind is OpKind.RESCALE
                and abs(log_scale - scale_bits)
                > RESCALE_DRIFT_TOLERANCE_LOG2):
            findings.append(make(
                "HE110", f"rescaled scale 2^{log_scale:.1f} has drifted "
                f"{abs(log_scale - scale_bits):.1f} bits from Delta = "
                f"2^{scale_bits:.0f}", op))
    return findings


def check_headroom(trace: OpTrace) -> list[Diagnostic]:
    """HE031: a declared result bound fits under the output modulus.

    Serving (:mod:`repro.serve`) stamps ``meta["result_bound"]`` — the
    largest |result| its workload declares — on a plan's output op.
    ``Q`` at the op's level must hold ``scale * bound`` with
    :data:`~repro.fhe.noise.HEADROOM_BITS` to spare, or a result near
    the bound decrypts wrapped.  Traces without the annotation pass
    vacuously.
    """
    findings: list[Diagnostic] = []
    params = trace.params
    for op in trace.ops:
        bound = op.meta.get("result_bound")
        if (bound is None or _log2_scale(op) is None
                or not 0 <= op.out_level <= params.max_level):
            continue
        spare = result_headroom(params, op.out_level, op.out_scale,
                                float(bound))
        if spare < 0:
            findings.append(make(
                "HE031", f"a result up to {float(bound):g} at scale "
                f"2^{math.log2(op.out_scale):.1f} needs "
                f"{-spare:.1f} more bits than the level-{op.out_level} "
                f"modulus 2^{_log2_q_at(params, op.out_level):.1f} "
                "leaves; it decrypts wrapped", op))
    return findings


# ---------------------------------------------------------------------------
# key availability (HE020/HE021/HE022)

def check_keys(trace: OpTrace,
               available_keys: Iterable[str] | None = None
               ) -> list[Diagnostic]:
    """Key-switch ops name keys a keygen for these params would hold; an
    op that switches none (:func:`~repro.trace.ops.switches_key`) names
    none."""
    findings: list[Diagnostic] = []
    params = trace.params
    key_set = set(available_keys) if available_keys is not None else None
    for op in trace.ops:
        if not switches_key(OPS[op.kind], op.meta):
            if op.key is not None and OPS[op.kind].key is not None:
                findings.append(make(
                    "HE020", f"an unrelinearized product names key "
                    f"{op.key!r}; it switches no key", op))
            continue
        if op.key is None:
            findings.append(make(
                "HE022", "key-switch op carries no key id", op))
            continue
        findings.extend(_check_key_id(op, params, key_set))
        findings.extend(_check_ks_shape(op, params))
    return findings


def _check_key_id(op: TraceOp, params: CkksParameters,
                  key_set: set[str] | None) -> list[Diagnostic]:
    key, spec = op.key, OPS[op.kind]
    assert key is not None and spec.key is not None
    if spec.key in _FIXED_KEY_WORDS:
        if key != key_id(spec, op.meta):
            noun, what = _FIXED_KEY_WORDS[spec.key]
            return [make("HE020", f"{noun} names key {key!r}; only "
                         f"{spec.key!r} exists for {what}", op)]
    else:  # rotation keys, rot-<amount>, one per amount the op names
        for one in key.split(","):
            prefix, _, amount_str = one.partition("-")
            if prefix != "rot" or not amount_str.isdigit():
                return [make("HE020", f"malformed rotation key id {one!r} "
                             "(expected 'rot-<amount>')", op)]
            amount = int(amount_str)
            if not 1 <= amount < params.num_slots:
                return [make("HE020", f"rotation amount {amount} outside "
                             f"[1, {params.num_slots}); no keygen holds "
                             "this key", op)]
        if all(arg in op.meta for arg in spec.meta_args) \
                and key != key_id(spec, op.meta):
            recorded = ", ".join(f"{arg} {op.meta[arg]}"
                                 for arg in spec.meta_args)
            return [make("HE020", f"key {key!r} disagrees with the "
                         f"recorded {recorded}", op)]
    absent = [one for one in key.split(",")
              if key_set is not None and one not in key_set]
    if absent:
        return [make("HE020", f"key {absent[0]!r} is not in the provided "
                     "available-key set", op)]
    return []


def _check_ks_shape(op: TraceOp, params: CkksParameters
                    ) -> list[Diagnostic]:
    if not 0 <= op.level <= params.max_level:
        return []  # level checks already flagged it
    expected_digits = params.digits_at(op.level)
    findings: list[Diagnostic] = []
    dnum = op.meta.get("dnum")
    if dnum is not None and int(dnum) != params.dnum:
        findings.append(make(
            "HE021", f"recorded dnum {dnum} but the parameters use "
            f"dnum {params.dnum}", op))
    digits = op.meta.get("digits")
    if digits is not None and int(digits) != expected_digits:
        findings.append(make(
            "HE021", f"recorded {digits} decomposition digits but "
            f"level {op.level} needs {expected_digits} (alpha = "
            f"{params.alpha})", op))
    return findings


# ---------------------------------------------------------------------------
# unrelinearized products (HE023)

def check_relinearization(trace: OpTrace) -> list[Diagnostic]:
    """HE023: a product left unrelinearized (``meta["relinearized"] =
    False``) is a degree-2 ciphertext, and so is every rescale of one;
    like the evaluators, only ``rescale`` (and decryption) takes such a
    value."""
    findings: list[Diagnostic] = []
    degree_two: set[int] = set()
    for op in trace.ops:
        read = next((i for i in op.inputs if i in degree_two), None)
        if read is not None and op.kind is not OpKind.RESCALE:
            findings.append(make(
                "HE023", f"reads op {read}, a product left unrelinearized "
                "or a rescale of one; only rescale and decryption take "
                "it", op))
        spec = OPS[op.kind]
        if (read is not None and op.kind is OpKind.RESCALE) or (
                spec.relinearize and not switches_key(spec, op.meta)):
            degree_two.add(op.op_id)
    return findings


# ---------------------------------------------------------------------------
# liveness (HE120)

def live_op_ids(trace: OpTrace) -> set[int]:
    """Ops backward-reachable from the program output."""
    if not trace.ops:
        return set()
    root = trace.output_op_id
    if root is None or not 0 <= root < len(trace.ops):
        root = trace.ops[-1].op_id
    live = {root}
    stack = [root]
    while stack:
        op = trace.op(stack.pop())
        for input_id in op.inputs:
            if input_id not in live:
                live.add(input_id)
                stack.append(input_id)
    return live


def check_liveness(trace: OpTrace) -> list[Diagnostic]:
    """HE120: ops whose results never reach the program output."""
    live = live_op_ids(trace)
    findings: list[Diagnostic] = []
    for op in trace.ops:
        if op.op_id in live:
            continue
        if op.kind is OpKind.SOURCE:
            continue        # unused inputs are a caller concern
        findings.append(make(
            "HE120", "result never reaches the program output "
            f"(op {trace.output_op_id if trace.output_op_id is not None else trace.ops[-1].op_id})",
            op))
    return findings


# ---------------------------------------------------------------------------
# serve slot windows (HE040/HE041)

def check_windows(trace: OpTrace) -> list[Diagnostic]:
    """HE040/HE041: serve-batch slot windows disjoint and aligned.

    Serving (:mod:`repro.serve`) annotates the SOURCE ops of a compiled
    plan with the slot windows its batcher packs queries into:
    ``meta["slot_windows"] = [[offset, width], ...]`` (or a single
    ``meta["slot_window"] = [offset, width]``).  Traces without the
    annotation are not serve plans and pass vacuously.
    """
    findings: list[Diagnostic] = []
    num_slots = trace.params.num_slots
    for op in trace.ops:
        windows = op.meta.get("slot_windows")
        if windows is None:
            single = op.meta.get("slot_window")
            windows = [single] if single is not None else []
        spans: list[tuple[int, int]] = []
        for window in windows:
            offset, width = int(window[0]), int(window[1])
            if (width <= 0 or width & (width - 1)
                    or offset % width != 0
                    or offset < 0 or offset + width > num_slots):
                findings.append(make(
                    "HE041", f"window [{offset}, {offset + width}) is "
                    f"not a width-aligned power-of-two span inside "
                    f"{num_slots} slots", op))
                continue
            spans.append((offset, offset + width))
        spans.sort()
        for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
            if lo2 < hi1:
                findings.append(make(
                    "HE040", f"windows [{lo1}, {hi1}) and [{lo2}, "
                    f"{hi2}) overlap; batched queries would read each "
                    "other's slots", op))
    return findings


# ---------------------------------------------------------------------------
# the composed linter

#: The default check suite, in report order.
Check = Callable[[OpTrace], list[Diagnostic]]


def lint_trace(trace: OpTrace, *, normalized: bool = False,
               available_keys: Iterable[str] | None = None,
               name: str | None = None) -> DiagnosticReport:
    """Run every static check over ``trace`` and return the report.

    ``normalized`` has no effect: every trace is linted as recorded
    (the recorder writes a ``rescale=True`` call as the product and its
    ``RESCALE``).  The keyword stays for callers that still pass it.
    """
    report = DiagnosticReport(name=name or trace.name)

    structural = check_structure(trace)
    report.extend(structural)
    if structural:
        # dangling references make data-flow checks unsafe
        return report

    report.extend(check_levels(trace))
    report.extend(check_scales(trace))
    report.extend(check_headroom(trace))
    report.extend(check_keys(trace, available_keys))
    report.extend(check_relinearization(trace))
    report.extend(check_liveness(trace))
    report.extend(check_windows(trace))
    return report


def lint_traces(traces: Sequence[OpTrace], *,
                available_keys: Iterable[str] | None = None
                ) -> list[DiagnosticReport]:
    """Lint several traces (the catalog path of the CLI and CI lane)."""
    return [lint_trace(trace, available_keys=available_keys)
            for trace in traces]
