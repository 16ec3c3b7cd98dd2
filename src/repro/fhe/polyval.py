"""Homomorphic polynomial evaluation (Paterson--Stockmeyer).

Evaluates sum_k c_k * x^k on a ciphertext in depth ~ log2(degree) + 2,
handling the CKKS scale/level alignment that plain Horner evaluation makes
impossible at useful depths.  Used by the bootstrap EvalMod stage and by the
HE-LR sigmoid approximation.

Every step is an evaluator call, i.e. a row of the op table
(:data:`repro.trace.ops.OPS`), including the scale fix of
:func:`match_scale_level`: the functions here take a real, a symbolic
or a recording evaluator alike, a recording of them replays and lints
like any program, and each refusal is its row's
(:func:`repro.trace.ops.check`).
"""

from __future__ import annotations

import math
from typing import Any

from repro.trace.ops import same_scale

#: Any evaluator of the op table's call surface — real, symbolic or
#: recording — and the ciphertext handles it takes.  Its methods are
#: installed from the table (:func:`repro.trace.ops.install_methods`),
#: which a type checker does not see.
Evaluator = Any
Handle = Any

#: Coefficients below this magnitude are skipped entirely.
COEFF_TOLERANCE = 1e-13


def match_scale_level(evaluator: Evaluator, ct: Handle, level: int,
                      scale: float) -> Handle:
    """Bring ``ct`` to (level, scale) without changing its value.

    Level is lowered by ``mod_drop``.  A scale mismatch is fixed by a
    ``poly_mult`` with the constant 1 encoded at scale
    ``scale * q_level / ct.scale``, rescaled: it costs one level but
    leaves the plaintext value untouched.  A scale within
    :data:`~repro.trace.ops.SCALE_TOLERANCE` needs no fix.
    """
    if ct.level < level:
        raise ValueError(f"cannot raise level {ct.level} -> {level}")
    needs_adjust = not same_scale(ct.scale, scale)
    # When a scale fix is needed, keep one spare level so the adjustment's
    # rescale lands exactly on the requested level.
    floor = level + 1 if needs_adjust and ct.level > level else level
    if ct.level > floor:
        ct = evaluator.mod_drop(ct, ct.level - floor)
    if not needs_adjust:
        return ct
    adjust_scale = scale * evaluator.params.moduli[ct.level] / ct.scale
    one = int(round(adjust_scale))
    if one <= 0:
        raise ValueError(
            f"scale adjustment {adjust_scale:.3g} is not representable")
    # The integer rounding of the factor perturbs the scale by < 1 ulp
    # of it; the row records the exact resulting scale.
    return evaluator.poly_mult(
        ct, evaluator.encoder.encode_constant(1.0, float(one)))


def _aligned_add(evaluator: Evaluator, a: Handle, b: Handle) -> Handle:
    """Add two ciphertexts, aligning level and scale as needed.

    The operand at the higher level is brought down to the lower one's
    (level, scale) -- with the scale fix applied one level above the target
    so no level below ``min(a.level, b.level)`` is consumed unless both
    operands already sit at the same level with mismatched scales.
    """
    if a.level == b.level:
        if same_scale(a.scale, b.scale):
            return evaluator.he_add(a, b)
        # Same level, different scales: one adjustment must burn a level.
        a = match_scale_level(evaluator, a, a.level, b.scale)
        b = evaluator.mod_drop(b, b.level - a.level)
        return evaluator.he_add(a, b)
    ref, other = (a, b) if a.level < b.level else (b, a)
    other = match_scale_level(evaluator, other, ref.level, ref.scale)
    ref = evaluator.mod_drop(ref, ref.level - other.level)
    return evaluator.he_add(ref, other)


def _aligned_sub(evaluator: Evaluator, a: Handle, b: Handle) -> Handle:
    """Subtract two ciphertexts, aligning level and scale as needed."""
    return _aligned_add(evaluator, a, evaluator.scalar_mult_int(b, -1))


def normalize_group(evaluator: Evaluator, cts: list[Handle],
                    target_scale: float | None = None) -> list[Handle]:
    """Bring a family of ciphertexts to one common (level, scale).

    Costs at most one level below the lowest member, instead of one level
    per pairwise mismatched addition.
    """
    if not cts:
        return []
    target_scale = target_scale or evaluator.params.scale
    min_level = min(ct.level for ct in cts)
    out: list[Handle] = []
    for ct in cts:
        ct = evaluator.mod_drop(ct, ct.level - min_level)
        ct = match_scale_level(evaluator, ct, ct.level, target_scale)
        out.append(ct)
    # Members whose scale already matched stayed at min_level; drop them
    # to the common floor reached by the adjusted ones.
    floor = min(ct.level for ct in out)
    return [evaluator.mod_drop(ct, ct.level - floor) for ct in out]


def _trimmed(coeffs: list[float]) -> list[float]:
    """``coeffs`` without negligible top terms; at least one is kept."""
    out = list(coeffs)
    while len(out) > 1 and abs(out[-1]) < COEFF_TOLERANCE:
        out.pop()
    return out


def _constant(evaluator: Evaluator, ct: Handle, value: float) -> Handle:
    """The constant ``value`` at ``ct``'s level and scale."""
    return evaluator.scalar_add(evaluator.scalar_mult_int(ct, 0), value)


def evaluate_chebyshev(evaluator: Evaluator, ct: Handle,
                       cheb_coeffs: list[float]) -> Handle:
    """Evaluate sum_k c_k T_k(x) for x in [-1, 1] (Chebyshev basis).

    Chebyshev-basis evaluation keeps intermediate magnitudes <= 1, avoiding
    the catastrophic cancellation that power-basis evaluation of a degree-15
    trigonometric approximation would suffer.  Uses the product identities
    T_2k = 2*T_k^2 - 1 and T_{a+b} = 2*T_a*T_b - T_{a-b} so the
    multiplicative depth is ceil(log2(degree)).
    """
    coeffs = _trimmed(cheb_coeffs)
    degree = len(coeffs) - 1
    if degree == 0:
        return _constant(evaluator, ct, coeffs[0])
    used = [k for k in range(1, degree + 1)
            if abs(coeffs[k]) >= COEFF_TOLERANCE]
    # The T_k a term uses and the factors they are made of, and no more:
    # T_k reads T_ceil(k/2), T_floor(k/2) and T_1.
    needed = set(used)
    for k in range(degree, 1, -1):
        if k in needed:
            needed |= {(k + 1) // 2, k // 2}
    cheb: dict[int, Handle] = {1: ct}
    for k in sorted(needed - {1}):
        hi = (k + 1) // 2
        lo = k - hi
        prod = evaluator.he_mult(cheb[hi], cheb[lo])
        doubled = evaluator.scalar_mult_int(prod, 2)
        if hi == lo:
            cheb[k] = evaluator.scalar_add(doubled, -1.0)
        else:
            cheb[k] = _aligned_sub(evaluator, doubled, cheb[hi - lo])
    aligned = normalize_group(evaluator, [cheb[k] for k in used])
    total: Handle | None = None
    for k, term_ct in zip(used, aligned):
        term = evaluator.scalar_mult(term_ct, coeffs[k])
        total = term if total is None else evaluator.he_add(total, term)
    if abs(coeffs[0]) > COEFF_TOLERANCE:
        total = evaluator.scalar_add(total, coeffs[0])
    return total


def evaluate_polynomial(evaluator: Evaluator, ct: Handle,
                        coeffs: list[float]) -> Handle:
    """Homomorphically evaluate ``sum_k coeffs[k] * x^k``.

    Uses Paterson--Stockmeyer: baby powers x^1..x^m, giant powers
    x^(m*i), with explicit scale alignment between partial sums.
    """
    coeffs = _trimmed(coeffs)
    degree = len(coeffs) - 1
    if degree == 0:
        return _constant(evaluator, ct, coeffs[0])
    if degree == 1:
        out = evaluator.scalar_mult(ct, coeffs[1])
        return evaluator.scalar_add(out, coeffs[0])
    m = max(2, int(math.ceil(math.sqrt(degree + 1))))
    baby = _powers(evaluator, ct, m)
    num_chunks = (degree + m) // m
    # x^(m*i) for i = 1 .. num_chunks - 1.
    giant = _powers(evaluator, baby[m], num_chunks - 1)
    # Evaluate each chunk sum_{j<m} c_{im+j} x^j at the baby powers.
    total: Handle | None = None
    for i in range(num_chunks):
        chunk = coeffs[i * m:(i + 1) * m]
        partial = _chunk_eval(evaluator, baby, chunk)
        if partial is None and abs(chunk[0] if chunk else 0.0) \
                < COEFF_TOLERANCE:
            continue
        if i > 0:
            g = giant[i]
            if partial is None:
                partial = evaluator.scalar_mult(g, chunk[0])
            else:
                lvl = min(partial.level, g.level)
                partial = match_scale_level(evaluator, partial, lvl,
                                            partial.scale)
                g_aligned = evaluator.mod_drop(g, g.level - partial.level)
                partial = evaluator.he_mult(partial, g_aligned)
        elif partial is None:
            partial = _constant(evaluator, ct, chunk[0])
        total = partial if total is None else \
            _aligned_add(evaluator, total, partial)
    return total


def _powers(evaluator: Evaluator, base: Handle,
            count: int) -> dict[int, Handle]:
    """base^1 .. base^count via a binary tree (depth log2 count)."""
    powers = {1: base}
    for k in range(2, count + 1):
        half = k // 2
        a, b = powers[half], powers[k - half]
        lvl = min(a.level, b.level)
        a = match_scale_level(evaluator, a, lvl, a.scale)
        b = match_scale_level(evaluator, b, lvl, b.scale)
        powers[k] = evaluator.he_mult(a, b)
    return powers


def _chunk_eval(evaluator: Evaluator, baby: dict[int, Handle],
                chunk: list[float]) -> Handle | None:
    """Evaluate sum_{j>=1} chunk[j] x^j + chunk[0]; None if all-zero."""
    partial: Handle | None = None
    for j in range(1, len(chunk)):
        if abs(chunk[j]) < COEFF_TOLERANCE:
            continue
        term = evaluator.scalar_mult(baby[j], chunk[j])
        partial = term if partial is None else \
            _aligned_add(evaluator, partial, term)
    if partial is not None and chunk and abs(chunk[0]) > COEFF_TOLERANCE:
        partial = evaluator.scalar_add(partial, chunk[0])
    return partial
