"""The limb-stacked compute backend.

Stores all RNS limbs of a polynomial as one ``(limbs, N)`` array with a
per-limb modulus vector, so every elementwise kernel and every NTT
butterfly stage executes once across the whole stack instead of once per
limb (GME section 2.2: the per-limb kernels of RNS-CKKS are independent
and batch perfectly).  At the paper's limb counts (dnum >= 3, 20+ limbs)
this removes a limb-count factor of Python/numpy dispatch overhead from
every hot path; see ``benchmarks/test_backend_speedup.py``.

Bit-exact with the reference backend: both run the same exact integer
arithmetic (int64 single-multiply path for stacks whose moduli are all
below 2**31, double-word uint64 sweeps below 2**61 — the paper's 54-bit
word included — and object dtype beyond that).
"""

from __future__ import annotations

import numpy as np

from ..modmath import (addmod_stack, from_mont_stack, mont_mulmod_stack,
                       mulmod_stack, negmod_stack, rescale_constants,
                       scalar_add_stack, scalar_mul_stack,
                       shoup_scalar_mul_stack, stack_native_class,
                       stack_residues, submod_stack, to_mont_stack,
                       unstack_residues)
from ..ntt import BatchedNttContext
from ..rns import approx_moddown_quotient
from .base import ComputeBackend
from .registry import register_backend


def _find_run(basis: tuple[int, ...], run: tuple[int, ...]) -> int | None:
    """Index at which ``run`` occurs as consecutive limbs of ``basis``."""
    try:
        start = basis.index(run[0])
    except ValueError:
        return None
    return start if basis[start:start + len(run)] == run else None


@register_backend("stacked")
class StackedBackend(ComputeBackend):
    """One 2-D ``(limbs, N)`` array per polynomial; batched kernels."""

    def __init__(self, params):
        super().__init__(params)
        self._batched_ntt: dict[tuple[int, ...], BatchedNttContext] = {}

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
        return data[picks]

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

    # -- Montgomery-domain kernels ----------------------------------------

    def mont_mul(self, a, b, moduli):
        return mont_mulmod_stack(a, b, moduli)

    def to_mont(self, a, moduli):
        return to_mont_stack(a, moduli)

    def from_mont(self, a, moduli):
        return from_mont_stack(a, moduli)

    # -- transforms -------------------------------------------------------

    def batched_ntt(self, moduli: tuple[int, ...]) -> BatchedNttContext:
        """Stacked twiddle tables for an RNS basis (lazily built, cached).

        Bases that are a contiguous run of limbs of an already-cached
        basis — every level drop walks down a prefix, rescale transforms
        the dropped limb alone, ModDown the special primes alone — share
        its stacked tables as row views; only genuinely new bases (e.g.
        the extended key-switching basis below the top level) allocate
        fresh stacks, keeping the cache O(L * N) overall.  The
        per-modulus :class:`NttContext` power tables are shared either way.
        """
        ctx = self._batched_ntt.get(moduli)
        if ctx is None:
            want = stack_native_class(moduli)
            count = len(moduli)
            for cached_moduli, cached in self._batched_ntt.items():
                start = _find_run(cached_moduli, moduli)
                if (start is not None
                        and stack_native_class(cached_moduli) == want):
                    ctx = cached.rows(start, start + count)
                    break
            else:
                per_limb = [self.ntt_context(q) for q in moduli]
                ctx = BatchedNttContext(moduli, self.params.ring_degree,
                                        per_limb=per_limb)
            self._batched_ntt[moduli] = ctx
        return ctx

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
        return [scalar_mul_stack(data[start:stop], hat_invs,
                                 ksctx.ct_moduli[start:stop])
                for (start, stop), hat_invs in zip(ksctx.digit_spans,
                                                   ksctx.digit_hat_inv)]

    def mod_up(self, digit, digit_index, ksctx):
        basis = ksctx.digit_bases[digit_index]
        primes = tuple(basis.primes)
        weights = ksctx.modup_weights[digit_index]
        mode = ksctx.modup_mode if digit.dtype != object else "object"
        dtype = np.int64 if mode != "object" else object
        # Centered y_i = [d_i * hat{q}_i^{-1}]_{q_i}, one sweep per stack.
        y = scalar_mul_stack(digit, basis.punctured_inv, primes)
        q_col = np.array(primes, dtype=dtype).reshape(len(primes), 1)
        half_col = q_col // 2
        c = y - np.where(y > half_col, q_col, 0)
        p_col = np.array(list(ksctx.extended),
                         dtype=dtype).reshape(len(ksctx.extended), 1)
        if mode == "int64" and ksctx.modup_matmul_safe[digit_index]:
            # Single integer matmul over the centered weights: every sum of
            # d products stays below 2**63 (bound checked when the context
            # was built), so one (T, d) @ (d, N) sweep plus one reduction
            # replaces the per-term remainder pass.
            acc = ksctx.modup_centered_weights[digit_index] @ c
            return np.remainder(acc, p_col)
        if mode == "dword":
            # 2-D double-word sweeps: per digit limb, broadcast its
            # centered residues against every target prime and fold with a
            # reduced modular add, so no intermediate leaves [0, p).
            acc = None
            for i in range(len(primes)):
                c_mod = np.remainder(c[i][None, :], p_col)
                term = mulmod_stack(c_mod, weights[:, i:i + 1],
                                    ksctx.extended)
                acc = term if acc is None else addmod_stack(
                    acc, term, ksctx.extended)
            return acc
        if mode == "object":
            if c.dtype != object:
                c = c.astype(object)
            # Object dtype is overflow-free: one dot per digit, then one
            # reduction per target prime.
            acc = np.dot(weights, c)
            return acc % p_col
        # int64 but too many limbs for the matmul bound: broadcast over all
        # (target, digit-limb) pairs with per-term reduction (|c*w| < 2**61,
        # then sums of < 32 reduced terms < 2**36).
        w = weights.reshape(weights.shape + (1,))
        terms = c[None, :, :] * w
        terms = np.remainder(terms, p_col[:, :, None])
        acc = terms.sum(axis=1)
        return np.remainder(acc, p_col)

    def mod_down(self, data, ksctx):
        ct_moduli = ksctx.ct_moduli
        # Only the special-prime rows leave EVAL form: their lift to the
        # ciphertext basis is transformed back and the subtract + P^{-1}
        # scaling run on evaluations (the NTT is linear per limb, so the
        # integers equal the COEFF-domain ModDown's, transformed).
        special = self.ntt_inverse(data[ksctx.num_ct:],
                                   ksctx.special_moduli)
        if ksctx.mod_down_mode == "approx":
            lift = self._lift_special_approx(special, ksctx)
        else:
            # Exact centered CRT (word-split planes, native per-target
            # folds); shares rns.convert_exact with the reference
            # backend, so both lifts are the same integers.
            lift = stack_residues(
                ksctx.p_basis.convert_exact(list(special), list(ct_moduli)),
                ct_moduli)
        diff = submod_stack(data[:ksctx.num_ct],
                            self.ntt_forward(lift, ct_moduli), ct_moduli)
        return shoup_scalar_mul_stack(diff, ksctx.p_inv,
                                      ksctx.p_inv_shoup, ct_moduli)

    def _lift_special_approx(self, special, ksctx):
        """Float-corrected approximate lift (see the reference backend)."""
        p_basis = ksctx.p_basis
        primes = tuple(p_basis.primes)
        dtype = object if special.dtype == object else np.int64
        y = scalar_mul_stack(special, p_basis.punctured_inv, primes)
        p_col = np.array(primes, dtype=dtype).reshape(len(primes), 1)
        yc = y - np.where(y > p_col // 2, p_col, 0)
        e = approx_moddown_quotient(yc, ksctx.moddown_prime_fracs)
        ct_moduli = ksctx.ct_moduli
        q_col = np.array(list(ct_moduli), dtype=dtype).reshape(
            len(ct_moduli), 1)
        acc = None
        for j in range(len(primes)):
            c_mod = np.remainder(yc[j][None, :], q_col)
            term = mulmod_stack(c_mod, ksctx.moddown_weights[:, j:j + 1],
                                ct_moduli)
            acc = term if acc is None else addmod_stack(acc, term, ct_moduli)
        p_mod_col = np.array(ksctx.moddown_p_mod_q, dtype=dtype).reshape(
            len(ct_moduli), 1)
        corr = mulmod_stack(np.remainder(e[None, :], q_col), p_mod_col,
                            ct_moduli)
        return submod_stack(acc, corr, ct_moduli)

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
        invs, quots = rescale_constants(tuple(int(q) for q in moduli))
        diff = submod_stack(data[:-1], lift, rest_moduli)
        return shoup_scalar_mul_stack(diff, invs, quots, rest_moduli)

