"""The limb-stacked compute backend.

Stores all RNS limbs of a polynomial as one ``(limbs, N)`` array with a
per-limb modulus vector, so every elementwise kernel and every NTT
step executes once across the whole stack instead of once per
limb (GME section 2.2: the per-limb kernels of RNS-CKKS are independent
and batch perfectly).  At the paper's limb counts (dnum >= 3, 20+ limbs)
this removes a limb-count factor of Python/numpy dispatch overhead from
every hot path; see ``benchmarks/test_backend_speedup.py``.

Bit-exact with the reference backend: both run the same exact integer
arithmetic (int64 single-multiply path for stacks whose moduli are all
below 2**31, one int64 product with float64 quotient estimates below
2**56, the paper's 54-bit word included — on both, the NTT and the
key-switch base conversions as exact matrix products — and object dtype
beyond that).  NTT tables are
not this backend's: they are built once per process and shared
(:mod:`repro.fhe.ntt`).
"""

from __future__ import annotations

import numpy as np

from .. import modmath
from ..modmath import (_as_object_array, _stack_native_ok, addmod_stack,
                       center_stack, mulmod_stack, negmod_stack, reduce_stack,
                       rescale_constants, scalar_add_stack, scalar_mul_stack,
                       stack_residues, submod_stack, unstack_residues)
from ..ntt import BatchedNttContext, batched_ntt_context
from ..rns import exact_moddown_quotient
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
        if _stack_native_ok(moduli, coeffs):
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

    def digit_decompose(self, data, ksctx):
        return [scale(data[start:stop])
                for (start, stop), scale in zip(ksctx.digit_spans,
                                                ksctx.digit_scale)]

    def mod_up(self, digit, digit_index, ksctx):
        weights = ksctx.modup_weights[digit_index]
        p_col = ksctx.extended_col
        # Centered y_i = [d_i * hat{q}_i^{-1}]_{q_i}, one sweep per stack.
        y = ksctx.digit_unpuncture[digit_index](digit)
        q_col = ksctx.digit_q_col[digit_index]
        half_col = ksctx.digit_half_col[digit_index]
        if y.dtype == object or ksctx.modup_matmul is None:
            # Object dtype is overflow-free: one dot per digit, then one
            # reduction per target prime.
            y, weights, q_col, half_col, p_col = map(
                _as_object_array, (y, weights, q_col, half_col, p_col))
            return np.dot(weights, center_stack(y, q_col, half_col)) % p_col
        # One (T, d) @ (d, N) product on either native tier: exact
        # float64 matmuls over split words.
        return ksctx.modup_matmul.left(
            ksctx.modup_tables[digit_index],
            center_stack(y, q_col, half_col), p_col, ksctx.extended_inv_col)

    def mod_down(self, data, ksctx):
        # Only the special-prime rows leave EVAL form: their lift to the
        # ciphertext basis is transformed back and the subtract + P^{-1}
        # scaling run on evaluations (the NTT is linear per limb, so the
        # integers equal the COEFF-domain ModDown's, transformed).
        special = self.ntt_inverse(data[ksctx.num_ct:],
                                   ksctx.special_moduli)
        lift = self.ntt_forward(self.lift_special(special, ksctx),
                                ksctx.ct_moduli)
        return ksctx.p_inv_scale.sub_mul(data[:ksctx.num_ct], lift)

    def lift_special(self, special, ksctx):
        """Centered lift of the special-prime part to the ciphertext basis.

        ``special`` is the COEFF ``(k, N)`` stack over the special primes;
        the result is the ``(n, N)`` stack of
        ``sum_j y_j * hat{p}_j - e * P mod q_i`` with centered
        ``y_j = [x_j * hat{p}_j^{-1}]_{p_j}`` and the true quotient ``e``
        (:func:`~repro.fhe.rns.exact_moddown_quotient`): the exact
        centered CRT lift.  That is one ``(n, k + 1) @ (k + 1, N)``
        matmul over split float64 words on either native tier; where the
        context bound none (the object tier, a quotient sum too long for
        the guard band) it is :meth:`RnsBasis.convert_exact` — the same
        integers, shared with the reference backend.
        """
        matmul = ksctx.moddown_lift_matmul
        if matmul is None or special.dtype == object or modmath._OBJECT_ONLY:
            ct_moduli = ksctx.ct_moduli
            return stack_residues(
                ksctx.p_basis.convert_exact(list(special), list(ct_moduli)),
                ct_moduli)
        k = len(special)
        operands = np.empty((k + 1, special.shape[1]), dtype=np.int64)
        operands[:k] = center_stack(ksctx.special_unpuncture(special),
                                    ksctx.special_col,
                                    ksctx.special_half_col)
        operands[k] = exact_moddown_quotient(
            operands[:k], ksctx.moddown_prime_fracs, ksctx.p_basis)
        return matmul.left(ksctx.moddown_lift_table, operands,
                           ksctx.ct_col, ksctx.ct_inv_col)

    def rescale_last(self, data, moduli):
        q_last = int(moduli[-1])
        rest_moduli = moduli[:-1]
        # Only the dropped limb leaves EVAL form.  Its centered lift is
        # the same polynomial modulo every remaining q_i, so one forward
        # sweep (which reduces each row modulo its own prime first) gives
        # the evaluations to subtract.
        last = self.ntt_inverse(data[-1:], moduli[-1:])[0]
        centered = last - np.where(last > q_last // 2, q_last, 0)
        lift = self.ntt_forward(
            np.broadcast_to(centered, (len(rest_moduli), len(centered))),
            rest_moduli)
        return rescale_constants(tuple(moduli)).sub_mul(data[:-1], lift)
