"""The exact per-limb compute backend (the seed implementation).

Keeps each limb as its own 1-D residue array and dispatches every kernel
through a Python-level loop over limbs, exactly as the original
``poly.py``/``evaluator.py`` hot paths did.  It is the correctness oracle
the :mod:`~repro.fhe.backend.stacked` backend is cross-checked against.
The per-limb kernels themselves dispatch through :mod:`~repro.fhe.modmath`
(int64 below 2**31, double-word native below 2**56; nothing wider).
"""

from __future__ import annotations

import numpy as np

from ..modmath import addmod_vec, mulmod_vec, negmod_vec, submod_vec
from ..rns import division
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
            out.append(acc)
        return out

    # -- the division ------------------------------------------------------

    def divide_round(self, data, moduli, keep):
        div = division(tuple(moduli), keep)
        k = len(div.dropped)
        # Only the dropped limbs leave EVAL form; each component's lift is
        # the exact CRT composition, centered, reduced modulo every kept
        # prime, and comes back through one forward transform.
        coeff = self.ntt_inverse([limb for x in data for limb in x[keep:]],
                                 div.dropped * len(data))
        lifts = self.ntt_forward(
            [limb for c in range(len(data))
             for limb in div.basis.convert_exact(coeff[c * k:(c + 1) * k],
                                                 list(div.kept))],
            div.kept * len(data))
        return [[mulmod_vec(submod_vec(limb, lift, q), inv, q)
                 for limb, lift, inv, q in zip(
                     x[:keep], lifts[c * keep:], div.scale.scalars, div.kept)]
                for c, x in enumerate(data)]
