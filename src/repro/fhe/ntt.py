"""Negacyclic number-theoretic transform (NTT) over Z_q[x]/(x^N + 1).

Implements the merged NTT of Longa--Naehrig / Poppelmann et al. [65] that the
paper adopts: twiddle factors are stored in bit-reversed order so they are
read sequentially within each butterfly stage (the spatial-locality
optimization the paper cites for GPU twiddle access).

Forward transform: Cooley--Tukey decimation-in-time with the 2N-th root psi
folded in (no pre-multiplication pass).  Inverse: Gentleman--Sande with
psi^-1 folded in and a final N^-1 scaling.

Both transforms are vectorized per stage with numpy.  Three kernel classes
(see :func:`repro.fhe.modmath.native_class`):

* ``int64`` (q < 2**31): twiddle products fit a single machine multiply;
* ``dword`` (q < 2**61, the paper's 54-bit word): butterflies run in
  uint64 with per-root Shoup precomputed quotients — one MULHI + two low
  multiplies + one conditional subtraction per twiddle product, the
  constant-multiply sequence GME's NTT kernels use;
* ``object`` (61+ bits): arbitrary-precision fallback, exact for any
  word size.
"""

from __future__ import annotations

import numpy as np

from . import modmath
from .modmath import (_addmod_u64, _shoup_mulmod_u64, _submod_u64,
                      addmod_stack, addmod_vec, invmod, limb_dtype,
                      mont_precompute_vec, mulmod, mulmod_stack, mulmod_vec,
                      native_class, reduce_stack, reduce_vec,
                      shoup_precompute_vec, stack_native_class, submod_stack,
                      submod_vec)
from .primes import primitive_nth_root


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value``."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Index array mapping i -> bit-reversed i for a power-of-two n."""
    bits = (n - 1).bit_length()
    index = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((index >> b) & 1) << (bits - 1 - b)
    return rev


class NttContext:
    """Precomputed negacyclic NTT tables for one prime modulus.

    For double-word moduli (31..60 bits) the twiddle tables carry Shoup
    companion tables: ``psi_rev_shoup[i] = floor(psi_rev[i] * 2**64 / q)``,
    one precomputed quotient per root, so every butterfly stage multiplies
    by its twiddles with the two-multiply Shoup sequence instead of a full
    Barrett reduction.

    Parameters
    ----------
    q:
        NTT-friendly prime with ``q === 1 (mod 2n)``.
    n:
        Power-of-two transform length (the ring degree N).
    """

    def __init__(self, q: int, n: int):
        if n & (n - 1):
            raise ValueError(f"transform length must be a power of two: {n}")
        if (q - 1) % (2 * n) != 0:
            raise ValueError(f"q={q} is not === 1 mod 2n={2 * n}")
        self.q = q
        self.n = n
        self.psi = primitive_nth_root(q, 2 * n)
        self.psi_inv = invmod(self.psi, q)
        self.n_inv = invmod(n, q)
        bits = (n - 1).bit_length()
        rev = [bit_reverse(i, bits) for i in range(n)]
        dtype = limb_dtype(q)
        psi_powers = self._power_table(self.psi)
        psi_inv_powers = self._power_table(self.psi_inv)
        self.psi_rev = np.array([psi_powers[r] for r in rev], dtype=dtype)
        self.psi_inv_rev = np.array([psi_inv_powers[r] for r in rev],
                                    dtype=dtype)
        self.klass = native_class(q)
        # Per-modulus REDC constants (qprime, r_mod_q, r_shoup, r_inv) for
        # the Montgomery-domain EVAL fast path; building the context warms
        # the process-wide constant cache for this modulus.
        self.mont = mont_precompute_vec(q)
        if self.klass == "dword":
            self.psi_rev_shoup = shoup_precompute_vec(self.psi_rev, q)
            self.psi_inv_rev_shoup = shoup_precompute_vec(self.psi_inv_rev, q)
            self.n_inv_shoup = np.uint64((self.n_inv << 64) // q)
        else:
            self.psi_rev_shoup = None
            self.psi_inv_rev_shoup = None
            self.n_inv_shoup = None

    def _power_table(self, base: int) -> list[int]:
        powers = [1] * self.n
        for i in range(1, self.n):
            powers[i] = mulmod(powers[i - 1], base, self.q)
        return powers

    def _use_dword(self, a: np.ndarray) -> bool:
        return (self.klass == "dword" and a.dtype != object
                and modmath._is_native(self.q))

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic NTT: coefficient form -> evaluation form."""
        q, n = self.q, self.n
        a = reduce_vec(np.array(coeffs, copy=True), q)
        if self._use_dword(a):
            return self._forward_dword(a)
        t = n
        m = 1
        while m < n:
            t //= 2
            twiddles = self.psi_rev[m:2 * m]
            block = a.reshape(m, 2 * t)
            u = block[:, :t].copy()
            v = mulmod_vec(block[:, t:], twiddles[:, None], q)
            block[:, :t] = addmod_vec(u, v, q)
            block[:, t:] = submod_vec(u, v, q)
            m *= 2
        return a

    def _forward_dword(self, a: np.ndarray) -> np.ndarray:
        """Shoup-multiply Cooley--Tukey stages in uint64 (in place)."""
        n = self.n
        q_u = np.uint64(self.q)
        au = a.view(np.uint64)
        tw_u = self.psi_rev.view(np.uint64)
        t = n
        m = 1
        while m < n:
            t //= 2
            tw = tw_u[m:2 * m, None]
            tws = self.psi_rev_shoup[m:2 * m, None]
            block = au.reshape(m, 2 * t)
            u = block[:, :t].copy()
            v = _shoup_mulmod_u64(block[:, t:], tw, tws, q_u)
            block[:, :t] = _addmod_u64(u, v, q_u)
            block[:, t:] = _submod_u64(u, v, q_u)
            m *= 2
        return a

    def inverse(self, evals: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT: evaluation form -> coefficient form."""
        q, n = self.q, self.n
        a = reduce_vec(np.array(evals, copy=True), q)
        if self._use_dword(a):
            return self._inverse_dword(a)
        t = 1
        m = n
        while m > 1:
            h = m // 2
            twiddles = self.psi_inv_rev[h:2 * h]
            block = a.reshape(h, 2 * t)
            u = block[:, :t].copy()
            v = block[:, t:].copy()
            block[:, :t] = addmod_vec(u, v, q)
            block[:, t:] = mulmod_vec(submod_vec(u, v, q), twiddles[:, None],
                                      q)
            t *= 2
            m = h
        return mulmod_vec(a, self.n_inv, q)

    def _inverse_dword(self, a: np.ndarray) -> np.ndarray:
        """Shoup-multiply Gentleman--Sande stages in uint64 (in place)."""
        n = self.n
        q_u = np.uint64(self.q)
        au = a.view(np.uint64)
        tw_u = self.psi_inv_rev.view(np.uint64)
        t = 1
        m = n
        while m > 1:
            h = m // 2
            tw = tw_u[h:2 * h, None]
            tws = self.psi_inv_rev_shoup[h:2 * h, None]
            block = au.reshape(h, 2 * t)
            u = block[:, :t].copy()
            v = block[:, t:].copy()
            block[:, :t] = _addmod_u64(u, v, q_u)
            block[:, t:] = _shoup_mulmod_u64(_submod_u64(u, v, q_u), tw, tws,
                                             q_u)
            t *= 2
            m = h
        out = _shoup_mulmod_u64(au, np.uint64(self.n_inv), self.n_inv_shoup,
                                q_u)
        return out.view(np.int64)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply two coefficient-form polynomials mod (x^n + 1, q)."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(mulmod_vec(fa, fb, self.q))


class BatchedNttContext:
    """Negacyclic NTT over a whole stack of RNS limbs at once.

    Where :class:`NttContext` runs each Cooley--Tukey stage on one limb,
    this context runs every stage once across a ``(limbs, N)`` array with
    per-row twiddle tables, the batching GME exploits on the GPU (each limb
    is an independent instance of the same kernel).  For double-word bases
    the stacked tables carry per-row Shoup quotients, so the paper's
    54-bit word runs the same uint64 butterflies as the 1-D context.
    Results are bit-exact with the per-limb transforms: both paths do the
    same exact integer arithmetic, only the loop structure differs.

    Parameters
    ----------
    moduli:
        NTT-friendly primes, one per limb (each ``q === 1 mod 2n``).
    n:
        Power-of-two transform length (the ring degree N).
    per_limb:
        Optional pre-built :class:`NttContext` per modulus; their twiddle
        tables are reused instead of being recomputed.
    """

    def __init__(self, moduli, n: int,
                 per_limb: list[NttContext] | None = None):
        self.moduli = tuple(moduli)
        self.n = n
        ctxs = per_limb or [NttContext(q, n) for q in self.moduli]
        if any(c.n != n for c in ctxs):
            raise ValueError("per-limb NTT contexts disagree on length")
        # The kernel class is bound here, once: forward / inverse run the
        # stages of this tier as direct ufuncs over the columns below.
        self.klass = stack_native_class(self.moduli)
        dtype = np.int64 if self.klass != "object" else object
        rows = len(ctxs)
        self.psi_rev = np.stack(
            [np.asarray(c.psi_rev, dtype=dtype) for c in ctxs])
        self.psi_inv_rev = np.stack(
            [np.asarray(c.psi_inv_rev, dtype=dtype) for c in ctxs])
        self.n_inv_col = np.array([c.n_inv for c in ctxs],
                                  dtype=dtype).reshape(rows, 1)
        self.q_col = np.array(self.moduli, dtype=dtype).reshape(rows, 1)
        self.psi_rev_shoup = self.psi_inv_rev_shoup = None
        self.n_inv_shoup_col = self.q_u_col = None
        if self.klass != "object":
            # Modulus column in stage shape (rows, blocks, half-block).
            self.q_u_col = self.q_col.view(np.uint64).reshape(rows, 1, 1)
        if self.klass == "dword":
            # Rows below 2**31 have no per-limb Shoup tables (they run the
            # int64 path solo) but need them inside a mixed stack.
            self.psi_rev_shoup = np.stack(
                [c.psi_rev_shoup if c.psi_rev_shoup is not None
                 else shoup_precompute_vec(c.psi_rev, c.q) for c in ctxs])
            self.psi_inv_rev_shoup = np.stack(
                [c.psi_inv_rev_shoup if c.psi_inv_rev_shoup is not None
                 else shoup_precompute_vec(c.psi_inv_rev, c.q)
                 for c in ctxs])
            self.n_inv_shoup_col = np.array(
                [(c.n_inv << 64) // c.q for c in ctxs],
                dtype=np.uint64).reshape(rows, 1)

    def rows(self, start: int, stop: int) -> "BatchedNttContext":
        """Context for limbs ``[start, stop)``, sharing twiddle storage as
        views.

        Level drops walk down prefixes of one basis, rescale / ModDown
        transform the dropped limb or the special primes alone, and ModUp
        transforms a raised digit on either side of its own limbs; all of
        them are row ranges of a stack that is already cached, so sharing
        it keeps the cache at O(L * N) instead of one copy per level and
        sub-basis.
        """
        rows = slice(start, stop)
        out = object.__new__(BatchedNttContext)
        out.moduli = self.moduli[rows]
        out.n = self.n
        out.klass = self.klass
        for name in ("psi_rev", "psi_inv_rev", "n_inv_col", "q_col",
                     "psi_rev_shoup", "psi_inv_rev_shoup",
                     "n_inv_shoup_col", "q_u_col"):
            table = getattr(self, name)
            setattr(out, name, None if table is None else table[rows])
        return out

    def _reduced(self, stack: np.ndarray) -> np.ndarray | None:
        """Fresh C-order int64 copy of ``stack`` reduced row-wise, or None
        when this transform must take the generic object-capable path:
        an object-tier context, object-dtype input, or — one read of the
        module flag per transform — :func:`modmath.force_object_dtype`
        active around a context that was built outside it.
        """
        if (self.klass == "object" or modmath._OBJECT_ONLY
                or stack.dtype == object):
            return None
        # C order whatever the input's strides (a broadcast row, say): the
        # stages reshape the copy and write through the views.
        a = np.empty(stack.shape, dtype=np.int64)
        np.remainder(stack, self.q_col, out=a)
        return a

    def forward(self, stack: np.ndarray) -> np.ndarray:
        """Batched negacyclic NTT: coefficient stack -> evaluation stack."""
        stack = np.asarray(stack)
        a = self._reduced(stack)
        if a is None:
            return self._forward_generic(stack)
        n, rows = self.n, len(self.moduli)
        q = self.q_u_col
        au = a.view(np.uint64)
        tw_u = self.psi_rev.view(np.uint64)
        shoup = self.psi_rev_shoup
        t = n
        m = 1
        while m < n:
            t //= 2
            block = au.reshape(rows, m, 2 * t)
            lo = block[:, :, :t]
            hi = block[:, :, t:]
            tw = tw_u[:, m:2 * m, None]
            if shoup is None:
                # q < 2**31: the product fits one machine word.
                v = hi * tw
                v %= q
            else:
                v = _shoup_mulmod_u64(hi, tw, shoup[:, m:2 * m, None], q)
            # Both results are fresh arrays, so writing the halves back
            # cannot alias the operands.
            s = _addmod_u64(lo, v, q)
            block[:, :, t:] = _submod_u64(lo, v, q)
            block[:, :, :t] = s
            m *= 2
        return a

    def inverse(self, stack: np.ndarray) -> np.ndarray:
        """Batched inverse NTT: evaluation stack -> coefficient stack."""
        stack = np.asarray(stack)
        a = self._reduced(stack)
        if a is None:
            return self._inverse_generic(stack)
        n, rows = self.n, len(self.moduli)
        q = self.q_u_col
        au = a.view(np.uint64)
        tw_u = self.psi_inv_rev.view(np.uint64)
        shoup = self.psi_inv_rev_shoup
        t = 1
        m = n
        while m > 1:
            h = m // 2
            block = au.reshape(rows, h, 2 * t)
            lo = block[:, :, :t]
            hi = block[:, :, t:]
            tw = tw_u[:, h:2 * h, None]
            d = _submod_u64(lo, hi, q)
            block[:, :, :t] = _addmod_u64(lo, hi, q)
            if shoup is None:
                d *= tw
                d %= q
                block[:, :, t:] = d
            else:
                block[:, :, t:] = _shoup_mulmod_u64(
                    d, tw, shoup[:, h:2 * h, None], q)
            t *= 2
            m = h
        q = q[:, :, 0]
        n_inv = self.n_inv_col.view(np.uint64)
        if shoup is None:
            au *= n_inv
            au %= q
            return a
        return _shoup_mulmod_u64(au, n_inv, self.n_inv_shoup_col,
                                 q).view(np.int64)

    # -- object tier: the generic kernels, exact for any word size -------

    def _forward_generic(self, stack: np.ndarray) -> np.ndarray:
        moduli, n = self.moduli, self.n
        rows = len(moduli)
        a = reduce_stack(np.array(stack, copy=True, order="C"), moduli)
        t = n
        m = 1
        while m < n:
            t //= 2
            twiddles = self.psi_rev[:, m:2 * m, None]
            block = a.reshape(rows, m, 2 * t)
            u = block[:, :, :t]
            v = mulmod_stack(block[:, :, t:], twiddles, moduli)
            # add/sub allocate fresh arrays from the views, so writing the
            # halves back afterwards cannot alias (no u.copy() needed).
            s = addmod_stack(u, v, moduli)
            d = submod_stack(u, v, moduli)
            block[:, :, :t] = s
            block[:, :, t:] = d
            m *= 2
        return a

    def _inverse_generic(self, stack: np.ndarray) -> np.ndarray:
        moduli, n = self.moduli, self.n
        rows = len(moduli)
        a = reduce_stack(np.array(stack, copy=True, order="C"), moduli)
        t = 1
        m = n
        while m > 1:
            h = m // 2
            twiddles = self.psi_inv_rev[:, h:2 * h, None]
            block = a.reshape(rows, h, 2 * t)
            u = block[:, :, :t]
            v = block[:, :, t:]
            s = addmod_stack(u, v, moduli)
            d = mulmod_stack(submod_stack(u, v, moduli), twiddles, moduli)
            block[:, :, :t] = s
            block[:, :, t:] = d
            t *= 2
            m = h
        return mulmod_stack(a, self.n_inv_col, moduli)


def negacyclic_convolution_naive(a: np.ndarray, b: np.ndarray,
                                 q: int) -> np.ndarray:
    """O(n^2) schoolbook negacyclic convolution; test oracle for the NTT."""
    n = len(a)
    result = [0] * n
    for i, ai in enumerate(int(x) for x in a):
        if ai == 0:
            continue
        for j, bj in enumerate(int(x) for x in b):
            k = i + j
            term = ai * bj
            if k >= n:
                result[k - n] = (result[k - n] - term) % q
            else:
                result[k] = (result[k] + term) % q
    return np.array(result, dtype=limb_dtype(q))
