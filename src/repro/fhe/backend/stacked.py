"""The limb-stacked compute backend.

Stores all RNS limbs of a polynomial as one ``(limbs, N)`` array with a
per-limb modulus vector, so every elementwise kernel and every NTT
step executes once across the whole stack instead of once per
limb (GME section 2.2: the per-limb kernels of RNS-CKKS are independent
and batch perfectly).  At the paper's limb counts (dnum >= 3, 20+ limbs)
this removes a limb-count factor of Python/numpy dispatch overhead from
every hot path; see ``benchmarks/test_backend_speedup.py``.

Bit-exact with the reference backend: both run the same exact integer
arithmetic on int64 residues (the single-multiply path for stacks whose
moduli are all below 2**31, one int64 product with float64 quotient
estimates below 2**56, the paper's 54-bit word included — on both, the
NTT and the key-switch base conversions as exact matrix products).  NTT
tables are not this backend's: they are built once per process and
shared (:mod:`repro.fhe.ntt`).
"""

from __future__ import annotations

import numpy as np

from ..modmath import (addmod_stack, center_stack, mulmod_stack, negmod_stack,
                       reduce_stack, scalar_add_stack, scalar_mul_stack,
                       stack_residues, submod_stack, unstack_residues)
from ..ntt import BatchedNttContext, batched_ntt_context
from ..rns import division
from .base import ComputeBackend
from .registry import register_backend


@register_backend("stacked")
class StackedBackend(ComputeBackend):
    """One 2-D ``(limbs, N)`` array per polynomial; batched kernels."""

    # -- storage ---------------------------------------------------------

    def as_native(self, limbs, moduli):
        if isinstance(limbs, np.ndarray) and limbs.ndim == 2:
            return limbs
        return stack_residues(list(limbs), moduli)

    def to_limbs(self, data, moduli):
        return unstack_residues(data)

    def copy(self, data):
        return data.copy()

    def select_limbs(self, data, picks):
        if isinstance(picks, range) and picks.step == 1:
            # A run of limbs is a view: kernels never write their inputs.
            return data[picks.start:picks.stop]
        return data[picks]

    def concat_limbs(self, parts):
        return np.concatenate(parts)

    def reduce_coeffs(self, coeffs, moduli):
        if coeffs.dtype != object:
            # One sweep, (1, N) % (limbs, 1), straight into the stack.
            return reduce_stack(coeffs.astype(np.int64, copy=False)[None],
                                moduli)
        return super().reduce_coeffs(coeffs, moduli)

    # -- elementwise kernels ---------------------------------------------

    def add(self, a, b, moduli):
        return addmod_stack(a, b, moduli)

    def sub(self, a, b, moduli):
        return submod_stack(a, b, moduli)

    def neg(self, a, moduli):
        return negmod_stack(a, moduli)

    def mul(self, a, b, moduli):
        return mulmod_stack(a, b, moduli)

    def scalar_mul(self, a, scalars, moduli):
        return scalar_mul_stack(a, scalars, moduli)

    def scalar_add(self, a, scalars, moduli):
        return scalar_add_stack(a, scalars, moduli)

    # Nothing in the library calls these two: ``bench/probes.SpanBackend``
    # wraps every name in ``bench/metrics.BACKEND_KERNELS``, which still
    # lists them, so they stay as stubs until that list drops them.
    def mont_mul(self, a, b, moduli):
        return self.mul(a, b, moduli)

    def to_mont(self, a, moduli):
        return a

    # -- transforms -------------------------------------------------------

    def batched_ntt(self, moduli: tuple[int, ...]) -> BatchedNttContext:
        """Stacked NTT tables for an RNS basis: the process-wide, shared
        ones (:func:`repro.fhe.ntt.batched_ntt_context`)."""
        return batched_ntt_context(moduli, self.params.ring_degree)

    def keyswitch_context(self, level):
        ksctx = super().keyswitch_context(level)
        # ModUp transforms a raised digit as the runs of the extended
        # basis around the digit's own limbs; with the extended stack
        # cached those runs are views of it, not one fresh twiddle copy
        # per (level, digit).
        self.batched_ntt(ksctx.extended)
        return ksctx

    def ntt_forward(self, data, moduli):
        return self.batched_ntt(tuple(moduli)).forward(data)

    def ntt_inverse(self, data, moduli):
        return self.batched_ntt(tuple(moduli)).inverse(data)

    def automorphism(self, data, moduli, src, flip):
        out = np.take(data, src, axis=1)
        if flip is not None:
            out[:, flip] = negmod_stack(out[:, flip], moduli)
        return out

    # -- key switching -----------------------------------------------------

    def mod_up(self, digit, digit_index, ksctx):
        # Centered y_i = [d_i * hat{q}_i^{-1}]_{q_i}, one sweep per stack,
        # then one (T, d) @ (d, N) product on either tier: exact float64
        # matmuls over split words.
        y = ksctx.digit_unpuncture[digit_index](digit)
        return ksctx.modup_matmul.left(
            ksctx.modup_tables[digit_index],
            center_stack(y, ksctx.digit_q_col[digit_index],
                         ksctx.digit_half_col[digit_index]),
            ksctx.extended_col, ksctx.extended_inv_col)

    # -- the division ------------------------------------------------------

    def divide_round(self, data, moduli, keep):
        div = division(tuple(moduli), keep)
        comps, k = len(data), len(div.dropped)
        coeff = self.ntt_inverse(np.concatenate([x[keep:] for x in data]),
                                 div.dropped * comps)
        # One lift for every component, side by side.
        lift = self.ntt_forward(
            _by_component(div.lift(_side_by_side(
                coeff.reshape(comps, k, -1))), comps), div.kept * comps)
        return list(div.scale(_minus(data, lift.reshape(comps, keep, -1))))


def _minus(data, lifts):
    """``x - lift`` per component, over ``lifts``' rows (``(comps, rows,
    N)``, overwritten): reduced operands, so ``|x - lift| < q`` — what a
    :class:`~repro.fhe.modmath.BoundScalarMul` then scales."""
    for x, lift in zip(data, lifts):
        np.subtract(x[:len(lift)], lift, out=lift)
    return lifts


def _side_by_side(stacks):
    """``(comps, rows, N)`` component stacks as one ``(rows, comps * N)``
    stack: the division's lift takes every component at once."""
    return stacks.transpose(1, 0, 2).reshape(stacks.shape[1], -1)


def _by_component(stack, comps):
    """The inverse of :func:`_side_by_side`: ``(rows, comps * N)`` back
    to one ``(rows, N)`` stack per component, stacked (a copy, also of a
    broadcast lift)."""
    rows = len(stack)
    return stack.reshape(rows, comps, -1).transpose(1, 0, 2) \
        .reshape(comps * rows, -1)
