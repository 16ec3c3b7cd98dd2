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
                       reduce_stack, rescale_constants, scalar_add_stack,
                       scalar_mul_stack, stack_residues, submod_stack,
                       unstack_residues)
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

    def mod_down(self, data, ksctx, plus=None):
        # Only the special-prime rows leave EVAL form, every component's
        # in one inverse call; their lifts come back in one forward call
        # and the subtract + P^{-1} scaling run on evaluations (the NTT
        # is linear per limb, so the integers equal the COEFF-domain
        # ModDown's).
        if plus is not None:
            return self._mod_down_rescale(data, ksctx, plus)
        n, k, comps = ksctx.num_ct, len(ksctx.special_moduli), len(data)
        special = self.ntt_inverse(np.concatenate([x[n:] for x in data]),
                                   ksctx.special_moduli * comps)
        lift = self.ntt_forward(
            _by_component(self.lift_special(
                _side_by_side(special.reshape(comps, k, -1)), ksctx), comps),
            ksctx.ct_moduli * comps).reshape(comps, n, -1)
        return list(ksctx.p_inv_scale(_minus(data, lift)))

    def _mod_down_rescale(self, data, ksctx, plus):
        """``round((d + x / P) / q_l)`` per component: one division by
        ``P * q_l`` (:meth:`ComputeBackend.mod_down`)."""
        n, k, comps = ksctx.num_ct, len(ksctx.special_moduli), len(data)
        l = n - 1
        last = ksctx.ct_col[l:]
        # Z = x + P*d is x on the special primes; on q_l its row joins
        # them, the run q_l, p_1 .. p_k of C_l + P.
        runs = np.empty((comps, k + 1, data[0].shape[1]), dtype=np.int64)
        runs[:, 0] = addmod_stack(
            ksctx.last_p(np.stack([d[l] for d in plus])),
            np.stack([x[l] for x in data]), ksctx.ct_moduli[l:])
        for c, x in enumerate(data):
            runs[c, 1:] = x[n:]
        coeff = self.ntt_inverse(runs.reshape(comps * (k + 1), -1),
                                 ksctx.extended[l:] * comps)
        coeff = coeff.reshape(comps, k + 1, -1)
        # s = [Z]_P, centered, on C_l; Z - s = P*r, and r = q_l*t + u with
        # u centered, so s + P*u is [Z]_{P*q_l}, centered: G.
        lift = self.lift_special(_side_by_side(coeff[:, 1:]), ksctx)
        u = center_stack(
            ksctx.last_p_inv.sub_mul(coeff[:, 0].reshape(1, -1), lift[l:]),
            last, last // 2)
        # |u| <= q_l / 2 may pass a narrower q_i: reduce it first.
        rest = ksctx.ct_col[:l]
        g = addmod_stack(lift[:l], ksctx.rest_p(np.remainder(u, rest)),
                         ksctx.ct_moduli[:l])
        g = self.ntt_forward(_by_component(g, comps),
                             ksctx.ct_moduli[:l] * comps)
        # t = (Z - G) / (P*q_l) = d / q_l + (x - G) / (P*q_l).
        over_q = rescale_constants(ksctx.ct_moduli)(
            np.stack([d[:l] for d in plus]))
        t = ksctx.rest_pq_inv(_minus(data, g.reshape(comps, l, -1)))
        t = addmod_stack(t.reshape(comps * l, -1),
                         over_q.reshape(comps * l, -1),
                         ksctx.ct_moduli[:l] * comps)
        return list(t.reshape(comps, l, -1))

    def lift_special(self, special, ksctx):
        """Centered lift of the special-prime part to the ciphertext basis.

        ``special`` is the COEFF ``(k, N)`` stack over the special primes;
        the result is the ``(n, N)`` stack of
        ``sum_j y_j * hat{p}_j - e * P mod q_i`` with centered
        ``y_j = [x_j * hat{p}_j^{-1}]_{p_j}`` and the true quotient ``e``
        (:func:`~repro.fhe.rns.exact_moddown_quotient`): the exact
        centered CRT lift.  That is one ``(n, k + 1) @ (k + 1, N)``
        matmul over split float64 words on either tier; where the context
        bound none (a quotient sum too long for the guard band) it is
        :meth:`RnsBasis.convert_exact` — the same integers, shared with
        the reference backend.
        """
        matmul = ksctx.moddown_lift_matmul
        if matmul is None:
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
        moduli = tuple(moduli)
        q_last = int(moduli[-1])
        rest = moduli[:-1]
        # Only the dropped limbs leave EVAL form, every component's in one
        # call.  A centered lift is the same polynomial modulo every
        # remaining q_i, so one forward sweep (which reduces each row
        # modulo its own prime first) gives the evaluations to subtract.
        last = self.ntt_inverse(np.stack([x[-1] for x in data]),
                                moduli[-1:] * len(data))
        centered = last - np.where(last > q_last // 2, q_last, 0)
        lift = self.ntt_forward(np.repeat(centered, len(rest), axis=0),
                                rest * len(data))
        return list(rescale_constants(moduli)(
            _minus(data, lift.reshape(len(data), len(rest), -1))))


def _minus(data, lifts):
    """``x - lift`` per component, over ``lifts``' rows (``(comps, rows,
    N)``, overwritten): reduced operands, so ``|x - lift| < q`` — what a
    :class:`~repro.fhe.modmath.BoundScalarMul` then scales."""
    for x, lift in zip(data, lifts):
        np.subtract(x[:len(lift)], lift, out=lift)
    return lifts


def _side_by_side(stacks):
    """``(comps, rows, N)`` component stacks as one ``(rows, comps * N)``
    stack: the lift's matmul takes every component at once."""
    return stacks.transpose(1, 0, 2).reshape(stacks.shape[1], -1)


def _by_component(stack, comps):
    """The inverse of :func:`_side_by_side`: ``(rows, comps * N)`` back
    to one ``(rows, N)`` stack per component, stacked."""
    rows = len(stack)
    return stack.reshape(rows, comps, -1).transpose(1, 0, 2) \
        .reshape(comps * rows, -1)
