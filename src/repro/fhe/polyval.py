"""Homomorphic polynomial evaluation (Paterson--Stockmeyer).

Evaluates sum_k c_k * x^k on a ciphertext in depth ~ log2(degree) + 2,
handling the CKKS scale/level alignment that plain Horner evaluation makes
impossible at useful depths.  Used by the bootstrap EvalMod stage and by the
HE-LR sigmoid approximation.
"""

from __future__ import annotations

import math

from .ciphertext import Ciphertext, require_relinearized
from .evaluator import CkksEvaluator

#: Coefficients below this magnitude are skipped entirely.
COEFF_TOLERANCE = 1e-13


def match_scale_level(evaluator: CkksEvaluator, ct: Ciphertext,
                      level: int, scale: float) -> Ciphertext:
    """Bring ``ct`` to (level, scale) without changing its value.

    Level is lowered by dropping limbs.  A scale mismatch is fixed by
    multiplying with the constant 1 encoded at scale
    ``scale * q_level / ct.scale`` followed by one rescale, which costs one
    level but leaves the plaintext value untouched.
    """
    require_relinearized("match_scale_level", ct)
    if ct.level < level:
        raise ValueError(f"cannot raise level {ct.level} -> {level}")
    needs_adjust = abs(ct.scale - scale) > 1e-9 * max(ct.scale, scale)
    # When a scale fix is needed, keep one spare level so the adjustment's
    # rescale lands exactly on the requested level.
    floor = level + 1 if needs_adjust and ct.level > level else level
    if ct.level > floor:
        ct = evaluator.mod_drop(ct, ct.level - floor)
    if not needs_adjust:
        return ct
    if ct.level == 0:
        raise ValueError("cannot adjust scale at level 0")
    q_next = evaluator.params.moduli[ct.level]
    adjust_scale = scale * q_next / ct.scale
    one = int(round(adjust_scale))
    if one <= 0:
        raise ValueError(
            f"scale adjustment {adjust_scale:.3g} is not representable")
    boosted = Ciphertext(c0=ct.c0.scalar_mul(one), c1=ct.c1.scalar_mul(one),
                         level=ct.level, scale=ct.scale * one)
    out = evaluator.rescale(boosted)
    # The integer rounding of the adjustment factor perturbs the scale by
    # < 1 ulp of the factor; record the exact resulting scale.
    return Ciphertext(out.c0, out.c1, out.level, ct.scale * one / q_next)


def _aligned_add(evaluator: CkksEvaluator, a: Ciphertext,
                 b: Ciphertext) -> Ciphertext:
    """Add two ciphertexts, aligning level and scale as needed.

    The operand at the higher level is brought down to the lower one's
    (level, scale) -- with the scale fix applied one level above the target
    so no level below ``min(a.level, b.level)`` is consumed unless both
    operands already sit at the same level with mismatched scales.
    """
    if a.level == b.level:
        if abs(a.scale - b.scale) <= 1e-9 * max(a.scale, b.scale):
            return evaluator.he_add(a, b)
        # Same level, different scales: one adjustment must burn a level.
        a = match_scale_level(evaluator, a, a.level, b.scale)
        b = evaluator.mod_drop(b, b.level - a.level)
        return evaluator.he_add(a, b)
    ref, other = (a, b) if a.level < b.level else (b, a)
    other = match_scale_level(evaluator, other, ref.level, ref.scale)
    ref = evaluator.mod_drop(ref, ref.level - other.level)
    return evaluator.he_add(ref, other)


def _aligned_sub(evaluator: CkksEvaluator, a: Ciphertext,
                 b: Ciphertext) -> Ciphertext:
    """Subtract two ciphertexts, aligning level and scale as needed."""
    neg_b = Ciphertext(c0=-b.c0, c1=-b.c1, level=b.level, scale=b.scale)
    return _aligned_add(evaluator, a, neg_b)


def normalize_group(evaluator: CkksEvaluator, cts: list[Ciphertext],
                    target_scale: float | None = None) -> list[Ciphertext]:
    """Bring a family of ciphertexts to one common (level, scale).

    Costs at most one level below the lowest member, instead of one level
    per pairwise mismatched addition.
    """
    if not cts:
        return []
    target_scale = target_scale or evaluator.params.scale
    min_level = min(ct.level for ct in cts)
    out = []
    for ct in cts:
        ct = evaluator.mod_drop(ct, ct.level - min_level)
        ct = match_scale_level(evaluator, ct, ct.level, target_scale)
        out.append(ct)
    # Members whose scale already matched stayed at min_level; drop them
    # to the common floor reached by the adjusted ones.
    floor = min(ct.level for ct in out)
    return [evaluator.mod_drop(ct, ct.level - floor) for ct in out]


def evaluate_chebyshev(evaluator: CkksEvaluator, ct: Ciphertext,
                       cheb_coeffs: list[float]) -> Ciphertext:
    """Evaluate sum_k c_k T_k(x) for x in [-1, 1] (Chebyshev basis).

    Chebyshev-basis evaluation keeps intermediate magnitudes <= 1, avoiding
    the catastrophic cancellation that power-basis evaluation of a degree-15
    trigonometric approximation would suffer.  Uses the product identities
    T_2k = 2*T_k^2 - 1 and T_{a+b} = 2*T_a*T_b - T_{a-b} so the
    multiplicative depth is ceil(log2(degree)).
    """
    coeffs = list(cheb_coeffs)
    while len(coeffs) > 1 and abs(coeffs[-1]) < COEFF_TOLERANCE:
        coeffs.pop()
    degree = len(coeffs) - 1
    if degree == 0:
        out = evaluator.scalar_mult_int(ct, 0)
        return evaluator.scalar_add(out, coeffs[0])
    cheb: dict[int, Ciphertext] = {1: ct}
    for k in range(2, degree + 1):
        hi = (k + 1) // 2
        lo = k - hi
        prod = evaluator.he_mult(cheb[hi], cheb[lo])
        doubled = evaluator.scalar_mult_int(prod, 2)
        if hi == lo:
            cheb[k] = evaluator.scalar_add(doubled, -1.0)
        else:
            cheb[k] = _aligned_sub(evaluator, doubled, cheb[hi - lo])
    used = [k for k in range(1, degree + 1)
            if abs(coeffs[k]) >= COEFF_TOLERANCE]
    aligned = normalize_group(evaluator, [cheb[k] for k in used])
    total: Ciphertext | None = None
    for k, term_ct in zip(used, aligned):
        term = evaluator.scalar_mult(term_ct, coeffs[k])
        total = term if total is None else evaluator.he_add(total, term)
    if total is None:
        total = evaluator.scalar_mult_int(ct, 0)
    if abs(coeffs[0]) > COEFF_TOLERANCE:
        total = evaluator.scalar_add(total, coeffs[0])
    return total


def evaluate_polynomial(evaluator: CkksEvaluator, ct: Ciphertext,
                        coeffs: list[float]) -> Ciphertext:
    """Homomorphically evaluate ``sum_k coeffs[k] * x^k``.

    Uses Paterson--Stockmeyer: baby powers x^1..x^m, giant powers
    x^(m*2^t), with explicit scale alignment between partial sums.
    """
    coeffs = list(coeffs)
    while len(coeffs) > 1 and abs(coeffs[-1]) < COEFF_TOLERANCE:
        coeffs.pop()
    degree = len(coeffs) - 1
    if degree == 0:
        out = evaluator.scalar_mult_int(ct, 0)
        return evaluator.scalar_add(out, coeffs[0])
    if degree == 1:
        out = evaluator.scalar_mult(ct, coeffs[1])
        return evaluator.scalar_add(out, coeffs[0])
    m = max(2, int(math.ceil(math.sqrt(degree + 1))))
    baby = _baby_powers(evaluator, ct, m)
    num_chunks = (degree + m) // m
    giant = _giant_powers(evaluator, baby[m], num_chunks)
    # Evaluate each chunk sum_{j<m} c_{im+j} x^j at the baby powers.
    total: Ciphertext | None = None
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
            partial = evaluator.scalar_add(
                evaluator.scalar_mult_int(ct, 0), chunk[0])
        total = partial if total is None else \
            _aligned_add(evaluator, total, partial)
    return total


def _baby_powers(evaluator: CkksEvaluator, ct: Ciphertext,
                 m: int) -> dict[int, Ciphertext]:
    """x^1 .. x^m via a binary tree (depth log2 m)."""
    powers = {1: ct}
    for k in range(2, m + 1):
        half = k // 2
        a, b = powers[half], powers[k - half]
        lvl = min(a.level, b.level)
        a = match_scale_level(evaluator, a, lvl, a.scale)
        b = match_scale_level(evaluator, b, lvl, b.scale)
        powers[k] = evaluator.he_mult(a, b)
    return powers


def _giant_powers(evaluator: CkksEvaluator, xm: Ciphertext,
                  num_chunks: int) -> dict[int, Ciphertext]:
    """x^(m*i) for i = 1..num_chunks-1 via products of x^m."""
    giants = {1: xm}
    for i in range(2, num_chunks):
        half = i // 2
        a, b = giants[half], giants[i - half]
        lvl = min(a.level, b.level)
        a = match_scale_level(evaluator, a, lvl, a.scale)
        b = match_scale_level(evaluator, b, lvl, b.scale)
        giants[i] = evaluator.he_mult(a, b)
    return giants


def _chunk_eval(evaluator: CkksEvaluator, baby: dict[int, Ciphertext],
                chunk: list[float]) -> Ciphertext | None:
    """Evaluate sum_{j>=1} chunk[j] x^j + chunk[0]; None if all-zero."""
    partial: Ciphertext | None = None
    for j in range(1, len(chunk)):
        if abs(chunk[j]) < COEFF_TOLERANCE:
            continue
        term = evaluator.scalar_mult(baby[j], chunk[j])
        partial = term if partial is None else \
            _aligned_add(evaluator, partial, term)
    if partial is not None and chunk and abs(chunk[0]) > COEFF_TOLERANCE:
        partial = evaluator.scalar_add(partial, chunk[0])
    return partial
