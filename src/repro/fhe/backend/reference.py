"""The exact per-limb compute backend (the seed implementation).

Keeps each limb as its own 1-D residue array and dispatches every kernel
through a Python-level loop over limbs, exactly as the original
``poly.py``/``evaluator.py`` hot paths did.  It is the correctness oracle
the :mod:`~repro.fhe.backend.stacked` backend is cross-checked against.
The per-limb kernels themselves dispatch through :mod:`~repro.fhe.modmath`
(int64 below 2**31, double-word native below 2**56, object beyond).
"""

from __future__ import annotations

import numpy as np

from ..modmath import (addmod_vec, limb_dtype, mulmod_vec, native_class,
                       negmod_vec, rescale_constants, submod_vec)
from .base import ComputeBackend
from .registry import register_backend


@register_backend("reference")
class ReferenceBackend(ComputeBackend):
    """Per-limb loops over 1-D numpy kernels (exact, unbatched)."""

    # -- storage ---------------------------------------------------------

    def as_native(self, limbs, moduli):
        if isinstance(limbs, np.ndarray) and limbs.ndim == 2:
            return [limbs[i] for i in range(limbs.shape[0])]
        return list(limbs)

    def to_limbs(self, data, moduli):
        return list(data)

    def copy(self, data):
        return [limb.copy() for limb in data]

    def select_limbs(self, data, picks):
        return [data[i] for i in picks]

    def concat_limbs(self, parts):
        return [limb for part in parts for limb in part]

    # -- elementwise kernels ---------------------------------------------

    def add(self, a, b, moduli):
        return [addmod_vec(x, y, q) for x, y, q in zip(a, b, moduli)]

    def sub(self, a, b, moduli):
        return [submod_vec(x, y, q) for x, y, q in zip(a, b, moduli)]

    def neg(self, a, moduli):
        return [negmod_vec(x, q) for x, q in zip(a, moduli)]

    def mul(self, a, b, moduli):
        return [mulmod_vec(x, y, q) for x, y, q in zip(a, b, moduli)]

    def scalar_mul(self, a, scalars, moduli):
        return [mulmod_vec(x, s % q, q)
                for x, s, q in zip(a, scalars, moduli, strict=True)]

    def scalar_add(self, a, scalars, moduli):
        return [(x + (s % q)) % q for x, s, q in zip(a, scalars, moduli)]

    # -- transforms -------------------------------------------------------

    def ntt_forward(self, data, moduli):
        return [self.ntt_context(q).forward(limb)
                for limb, q in zip(data, moduli)]

    def ntt_inverse(self, data, moduli):
        return [self.ntt_context(q).inverse(limb)
                for limb, q in zip(data, moduli)]

    def automorphism(self, data, moduli, src, flip):
        out_limbs = []
        for limb, q in zip(data, moduli):
            out = limb[src]
            if flip is not None:
                out[flip] = negmod_vec(out[flip], q)
            out_limbs.append(out)
        return out_limbs

    # -- key switching -----------------------------------------------------

    def digit_decompose(self, data, ksctx):
        digits = []
        for (start, stop), hat_invs in zip(ksctx.digit_spans,
                                           ksctx.digit_hat_inv):
            primes = ksctx.ct_moduli[start:stop]
            digits.append([mulmod_vec(limb, inv, q)
                           for limb, inv, q in zip(data[start:stop],
                                                   hat_invs, primes)])
        return digits

    def mod_up(self, digit, digit_index, ksctx):
        basis = ksctx.digit_bases[digit_index]
        weights = ksctx.modup_weights[digit_index]
        # Centered y_i = [d_i * hat{q}_i^{-1}]_{q_i} per digit limb.
        centered = []
        for limb, hat_inv, q in zip(digit, basis.punctured_inv, basis.primes):
            y = mulmod_vec(limb, hat_inv, q)
            centered.append(y - np.where(y > q // 2, q, 0))
        # Reduce the centered residue into [0, p), one constant mulmod per
        # (limb, target) term, and a modular add after every term: no sum
        # leaves [0, p) at any word size.
        out = []
        for t, p in enumerate(ksctx.extended):
            acc = None
            for c, w in zip(centered, weights[t]):
                term = mulmod_vec(np.remainder(c, p), int(w), p)
                acc = term if acc is None else addmod_vec(acc, term, p)
            out.append(acc.astype(limb_dtype(p), copy=False))
        return out

    def mod_down(self, data, ksctx):
        # Only the special-prime limbs leave EVAL form; the lift comes
        # back through one forward transform and the subtract + P^{-1}
        # scaling run on evaluations (the NTT is linear per limb).
        special = self.ntt_inverse(data[ksctx.num_ct:],
                                   ksctx.special_moduli)
        lift = self.ntt_forward(
            ksctx.p_basis.convert_exact(special, list(ksctx.ct_moduli)),
            ksctx.ct_moduli)
        return [mulmod_vec(submod_vec(limb, lift_limb, q), p_inv, q)
                for limb, lift_limb, p_inv, q in zip(
                    data[:ksctx.num_ct], lift, ksctx.p_inv,
                    ksctx.ct_moduli)]

    def rescale_last(self, data, moduli):
        q_last = int(moduli[-1])
        rest = moduli[:-1]
        # Only the dropped limb leaves EVAL form; its centered lift (which
        # keeps the rounding error small) is reduced modulo each remaining
        # prime by the forward transform itself.
        last = self.ntt_inverse(data[-1:], moduli[-1:])[0]
        half = q_last // 2
        if native_class(q_last) != "object" and last.dtype != object:
            centered = last.astype(np.int64) - np.where(last > half,
                                                        q_last, 0)
        else:
            centered = last.astype(object) - np.where(
                last.astype(object) > half, q_last, 0)
        lift = self.ntt_forward([centered] * len(rest), rest)
        invs = rescale_constants(tuple(moduli)).scalars
        return [mulmod_vec(submod_vec(limb, lift_limb, q), inv, q)
                for limb, lift_limb, q, inv in zip(data[:-1], lift, rest,
                                                   invs)]
