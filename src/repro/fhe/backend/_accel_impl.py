"""The ``accel`` compute backend: numba-JIT kernels over stacked limbs.

Imported (and therefore registered) only when numba is available — see
:mod:`.accel` for the gate.  Subclasses :class:`~.stacked.StackedBackend`
and replaces its hottest double-word sweeps with ``@njit`` scalar loops:

* pointwise Barrett multiply and Montgomery (REDC) multiply,
* the Shoup-multiply NTT butterfly stages (forward and inverse),
* the per-digit-limb ModUp fold of digit decomposition.

Each JIT kernel is a line-for-line scalar transcription of the numpy
double-word kernel it replaces (:func:`~repro.fhe.modmath._mul64` /
:func:`~repro.fhe.modmath._mulhi64` 32-bit word splits,
:func:`~repro.fhe.modmath._barrett_reduce_dword`,
:func:`~repro.fhe.modmath._mont_mulmod_u64`,
:func:`~repro.fhe.modmath._shoup_mulmod_u64`), so every tier computes the
same uint64 values and the backend is bit-identical with ``stacked`` by
construction — the equivalence suite under ``REPRO_FHE_BACKEND=accel``
checks exactly that.  What the JIT buys is the loop structure: one fused
pass per kernel instead of numpy's ~10 temporary-allocating sweeps per
word-split multiply.

Anything outside the double-word tier (int64-only stacks, object dtype,
:func:`~repro.fhe.modmath.force_object_dtype`) defers to the stacked
implementation untouched.

All scalar constants inside ``@njit`` bodies are ``np.uint64`` — mixing a
Python int literal into uint64 arithmetic makes numba promote the whole
expression to float64, silently destroying exactness.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numba
import numpy as np

from .. import modmath
from ..modmath import (_barrett_columns, _mont_columns, _stack_native_ok,
                       reduce_stack, stack_native_class)
from ..ntt import ntt_context
from .registry import register_backend
from .stacked import StackedBackend

_U32_MASK = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ZERO = np.uint64(0)
_ONE = np.uint64(1)


# -- scalar primitives (transcribed word-split helpers) ---------------------

@numba.njit(inline="always")
def _mulhi(a, b):
    """High 64 bits of the 64x64-bit product (scalar _mulhi64)."""
    a0 = a & _U32_MASK
    a1 = a >> _SHIFT32
    b0 = b & _U32_MASK
    b1 = b >> _SHIFT32
    mid1 = a1 * b0 + ((a0 * b0) >> _SHIFT32)
    mid2 = a0 * b1 + (mid1 & _U32_MASK)
    return a1 * b1 + (mid1 >> _SHIFT32) + (mid2 >> _SHIFT32)


@numba.njit(inline="always")
def _mul128(a, b):
    """Full 64x64 -> 128-bit product as a ``(hi, lo)`` pair (scalar _mul64)."""
    a0 = a & _U32_MASK
    a1 = a >> _SHIFT32
    b0 = b & _U32_MASK
    b1 = b >> _SHIFT32
    p00 = a0 * b0
    mid1 = a1 * b0 + (p00 >> _SHIFT32)
    mid2 = a0 * b1 + (mid1 & _U32_MASK)
    hi = a1 * b1 + (mid1 >> _SHIFT32) + (mid2 >> _SHIFT32)
    lo = (mid2 << _SHIFT32) | (p00 & _U32_MASK)
    return hi, lo


@numba.njit(inline="always")
def _barrett(hi, lo, q, ratio_lo, ratio_hi):
    """128-bit Barrett reduction (scalar _barrett_reduce_dword)."""
    carry = _mulhi(lo, ratio_lo)
    t_hi, t_lo = _mul128(lo, ratio_hi)
    tmp = t_lo + carry
    round1 = t_hi
    if tmp < t_lo:
        round1 += _ONE
    t_hi, t_lo = _mul128(hi, ratio_lo)
    tmp2 = tmp + t_lo
    carry = t_hi
    if tmp2 < t_lo:
        carry += _ONE
    quot = hi * ratio_hi + round1 + carry
    r = lo - quot * q
    if r >= q:
        r -= q
    return r


@numba.njit(inline="always")
def _redc(a, b, q, qprime):
    """REDC product of Montgomery operands (scalar _mont_mulmod_u64)."""
    hi, lo = _mul128(a, b)
    m = lo * qprime
    u = hi + _mulhi(m, q)
    if lo != _ZERO:
        u += _ONE
    if u >= q:
        u -= q
    return u


# -- elementwise stack kernels ----------------------------------------------

@numba.njit
def _nb_mul_stack(a, b, q, ratio_lo, ratio_hi, out):
    rows, n = a.shape
    for r in range(rows):
        qr = q[r]
        lo_r = ratio_lo[r]
        hi_r = ratio_hi[r]
        for j in range(n):
            hi, lo = _mul128(a[r, j], b[r, j])
            out[r, j] = _barrett(hi, lo, qr, lo_r, hi_r)


@numba.njit
def _nb_mont_mul_stack(a, b, q, qprime, out):
    rows, n = a.shape
    for r in range(rows):
        qr = q[r]
        qp = qprime[r]
        for j in range(n):
            out[r, j] = _redc(a[r, j], b[r, j], qr, qp)


# -- NTT butterfly kernels (in place) ---------------------------------------

@numba.njit
def _nb_ntt_forward(a, tw, tws, q):
    """Cooley--Tukey stages with Shoup twiddle multiplies, per row."""
    rows, n = a.shape
    for r in range(rows):
        qr = q[r]
        t = n
        m = 1
        while m < n:
            t //= 2
            for i in range(m):
                w = tw[r, m + i]
                ws = tws[r, m + i]
                base = 2 * i * t
                for j in range(base, base + t):
                    u = a[r, j]
                    x = a[r, j + t]
                    qhat = _mulhi(ws, x)
                    v = w * x - qhat * qr
                    if v >= qr:
                        v -= qr
                    s = u + v
                    if s >= qr:
                        s -= qr
                    d = u + (qr - v)
                    if d >= qr:
                        d -= qr
                    a[r, j] = s
                    a[r, j + t] = d
            m *= 2


@numba.njit
def _nb_ntt_inverse(a, tw, tws, n_inv, n_inv_shoup, q):
    """Gentleman--Sande stages + final N^-1 scaling, per row."""
    rows, n = a.shape
    for r in range(rows):
        qr = q[r]
        t = 1
        m = n
        while m > 1:
            h = m // 2
            for i in range(h):
                w = tw[r, h + i]
                ws = tws[r, h + i]
                base = 2 * i * t
                for j in range(base, base + t):
                    u = a[r, j]
                    v = a[r, j + t]
                    s = u + v
                    if s >= qr:
                        s -= qr
                    d = u + (qr - v)
                    if d >= qr:
                        d -= qr
                    qhat = _mulhi(ws, d)
                    d = w * d - qhat * qr
                    if d >= qr:
                        d -= qr
                    a[r, j] = s
                    a[r, j + t] = d
            t *= 2
            m = h
        wn = n_inv[r]
        wns = n_inv_shoup[r]
        for j in range(n):
            x = a[r, j]
            qhat = _mulhi(wns, x)
            x = wn * x - qhat * qr
            if x >= qr:
                x -= qr
            a[r, j] = x


# -- ModUp fold --------------------------------------------------------------

@numba.njit
def _nb_mod_up(c, weights, p_i64, q, ratio_lo, ratio_hi, out):
    """Per-target fold of centered digit residues against ModUp weights.

    ``c`` is the centered int64 ``(d, n)`` digit, ``weights`` the int64
    ``(targets, d)`` punctured products mod each target prime.  Matches
    the stacked dword mode: remainder, Barrett mulmod, reduced add, one
    term per digit limb — no intermediate leaves [0, p).
    """
    targets, d = weights.shape
    n = c.shape[1]
    for t in range(targets):
        pt = p_i64[t]
        qt = q[t]
        lo_t = ratio_lo[t]
        hi_t = ratio_hi[t]
        for j in range(n):
            acc = _ZERO
            for i in range(d):
                cm = np.uint64(c[i, j] % pt)
                wi = np.uint64(weights[t, i])
                hi, lo = _mul128(cm, wi)
                term = _barrett(hi, lo, qt, lo_t, hi_t)
                acc = acc + term
                if acc >= qt:
                    acc -= qt
            out[t, j] = acc


def _u64_2d(a: np.ndarray) -> np.ndarray:
    """C-contiguous uint64 reinterpretation of an int64 array."""
    return np.ascontiguousarray(a).view(np.uint64)


@functools.lru_cache(maxsize=64)
def _butterfly_stacks(moduli: tuple[int, ...], n: int) -> SimpleNamespace:
    """The per-limb butterfly tables of a double-word basis, stacked as
    the uint64 arrays the JIT loops read.  Only these loops read them:
    the stacked transform gathers tables of its own."""
    ctxs = [ntt_context(q, n) for q in moduli]

    def stack(name: str) -> tuple[np.ndarray, np.ndarray]:
        return (np.stack([getattr(c, name) for c in ctxs]).view(np.uint64),
                np.stack([c.shoups(name) for c in ctxs]))

    psi_rev, psi_rev_shoup = stack("psi_rev")
    psi_inv_rev, psi_inv_rev_shoup = stack("psi_inv_rev")
    tables = SimpleNamespace(
        psi_rev=psi_rev, psi_rev_shoup=psi_rev_shoup,
        psi_inv_rev=psi_inv_rev, psi_inv_rev_shoup=psi_inv_rev_shoup,
        n_inv=np.array([c.n_inv for c in ctxs], dtype=np.uint64),
        n_inv_shoup=np.array([(c.n_inv << 64) // c.q for c in ctxs],
                             dtype=np.uint64),
        q=np.array(moduli, dtype=np.uint64))
    for table in vars(tables).values():     # cached, so shared
        table.setflags(write=False)
    return tables


@register_backend("accel")
class AccelBackend(StackedBackend):
    """Stacked storage layout + numba-JIT double-word kernels."""

    def _dword_pair(self, a, b, moduli) -> bool:
        return (stack_native_class(tuple(moduli)) == "dword"
                and isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == np.int64 and b.dtype == np.int64
                and a.ndim == 2 and a.shape == b.shape
                and _stack_native_ok(moduli, a, b))

    # -- elementwise -----------------------------------------------------

    def mul(self, a, b, moduli):
        if not self._dword_pair(a, b, moduli):
            return super().mul(a, b, moduli)
        q_u, ratio_lo, ratio_hi = _barrett_columns(tuple(moduli), 1)
        out = np.empty(a.shape, dtype=np.uint64)
        _nb_mul_stack(_u64_2d(a), _u64_2d(b), q_u, ratio_lo, ratio_hi, out)
        return out.view(np.int64)

    def mont_mul(self, a, b, moduli):
        if not self._dword_pair(a, b, moduli):
            return super().mont_mul(a, b, moduli)
        q_u, qprime, _, _ = _mont_columns(tuple(moduli), 1)
        out = np.empty(a.shape, dtype=np.uint64)
        _nb_mont_mul_stack(_u64_2d(a), _u64_2d(b), q_u, qprime, out)
        return out.view(np.int64)

    # -- transforms ------------------------------------------------------

    def _ntt_dword(self, ctx, data) -> bool:
        return (ctx.klass == "dword" and data.dtype != object
                and not modmath._OBJECT_ONLY)

    def ntt_forward(self, data, moduli):
        ctx = self.batched_ntt(tuple(moduli))
        if not self._ntt_dword(ctx, data):
            return super().ntt_forward(data, moduli)
        a = reduce_stack(np.array(data, copy=True, order="C"),
                         ctx.moduli)
        tables = _butterfly_stacks(ctx.moduli, ctx.n)
        _nb_ntt_forward(_u64_2d(a), tables.psi_rev, tables.psi_rev_shoup,
                        tables.q)
        return a

    def ntt_inverse(self, data, moduli):
        ctx = self.batched_ntt(tuple(moduli))
        if not self._ntt_dword(ctx, data):
            return super().ntt_inverse(data, moduli)
        a = reduce_stack(np.array(data, copy=True, order="C"),
                         ctx.moduli)
        tables = _butterfly_stacks(ctx.moduli, ctx.n)
        _nb_ntt_inverse(_u64_2d(a), tables.psi_inv_rev,
                        tables.psi_inv_rev_shoup, tables.n_inv,
                        tables.n_inv_shoup, tables.q)
        return a

    # -- key switching ---------------------------------------------------

    def mod_up(self, digit, digit_index, ksctx):
        if (digit.dtype == object
                or stack_native_class(ksctx.extended) != "dword"):
            return super().mod_up(digit, digit_index, ksctx)
        y = ksctx.digit_unpuncture[digit_index](digit)
        q_col = ksctx.digit_q_col[digit_index]
        c = y - np.where(y > ksctx.digit_half_col[digit_index], q_col, 0)
        weights = ksctx.modup_weights[digit_index]
        p_i64 = ksctx.extended_col[:, 0]
        q_u, ratio_lo, ratio_hi = _barrett_columns(ksctx.extended, 1)
        out = np.empty((len(ksctx.extended), digit.shape[1]),
                       dtype=np.uint64)
        _nb_mod_up(np.ascontiguousarray(c),
                   np.ascontiguousarray(weights, dtype=np.int64),
                   p_i64, q_u, ratio_lo, ratio_hi, out)
        return out.view(np.int64)
