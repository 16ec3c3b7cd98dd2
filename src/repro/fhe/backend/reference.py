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

from ..modmath import (addmod_vec, mulmod_vec, negmod_vec, rescale_constants,
                       submod_vec)
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

    def mod_down(self, data, ksctx, plus=None):
        # Only the special-prime limbs leave EVAL form (with ``plus``, the
        # q_l limb of x + P*d beside them); the lifts come back through
        # one forward transform and the rest runs on evaluations (the NTT
        # is linear per limb).  The formulas are the stacked backend's,
        # limb by limb, over the exact CRT lift.
        n, k, comps = ksctx.num_ct, len(ksctx.special_moduli), len(data)
        ct_moduli = list(ksctx.ct_moduli)
        if plus is None:
            special = self.ntt_inverse([limb for x in data
                                        for limb in x[n:]],
                                       ksctx.special_moduli * comps)
            lift = self.ntt_forward(
                [limb for c in range(comps)
                 for limb in ksctx.p_basis.convert_exact(
                     special[c * k:(c + 1) * k], ct_moduli)],
                ksctx.ct_moduli * comps)
            return [[mulmod_vec(submod_vec(limb, lift_limb, q), p_inv, q)
                     for limb, lift_limb, p_inv, q in zip(
                         x[:n], lift[c * n:], ksctx.p_inv, ct_moduli)]
                    for c, x in enumerate(data)]
        l = n - 1
        q_l, rest = ct_moduli[l], ct_moduli[:l]
        runs = []
        for x, d in zip(data, plus):
            runs.append(addmod_vec(
                x[l], mulmod_vec(d[l], ksctx.last_p.scalars[0], q_l), q_l))
            runs += x[n:]
        coeff = self.ntt_inverse(runs, ksctx.extended[l:] * comps)
        g = []
        for c in range(comps):
            z_l, *special = coeff[c * (k + 1):(c + 1) * (k + 1)]
            lift = ksctx.p_basis.convert_exact(special, ct_moduli)
            r = mulmod_vec(submod_vec(z_l, lift[l], q_l),
                           ksctx.last_p_inv.scalars[0], q_l)
            u = r - np.where(r > q_l // 2, q_l, 0)
            g += [addmod_vec(lift_limb,
                             mulmod_vec(np.remainder(u, q), p_mod_q, q), q)
                  for lift_limb, p_mod_q, q in zip(
                      lift, ksctx.rest_p.scalars, rest)]
        g = self.ntt_forward(g, ksctx.ct_moduli[:l] * comps)
        q_invs = rescale_constants(ksctx.ct_moduli).scalars
        return [[addmod_vec(mulmod_vec(d_limb, q_inv, q),
                            mulmod_vec(submod_vec(limb, g_limb, q),
                                       pq_inv, q), q)
                 for limb, d_limb, g_limb, q_inv, pq_inv, q in zip(
                     x, d, g[c * l:], q_invs, ksctx.rest_pq_inv.scalars,
                     rest)]
                for c, (x, d) in enumerate(zip(data, plus))]

    def rescale_last(self, data, moduli):
        q_last = int(moduli[-1])
        rest = tuple(moduli[:-1])
        # Only the dropped limbs leave EVAL form; each centered lift
        # (which keeps the rounding error small) is reduced modulo every
        # remaining prime by the forward transform itself.
        last = self.ntt_inverse([x[-1] for x in data],
                                (q_last,) * len(data))
        lifts = self.ntt_forward(
            [centered for limb in last
             for centered in [limb - np.where(limb > q_last // 2,
                                              q_last, 0)] * len(rest)],
            rest * len(data))
        invs = rescale_constants(tuple(moduli)).scalars
        return [[mulmod_vec(submod_vec(limb, lift_limb, q), inv, q)
                 for limb, lift_limb, q, inv in zip(
                     x[:-1], lifts[c * len(rest):], rest, invs)]
                for c, x in enumerate(data)]
