"""Negacyclic number-theoretic transform (NTT) over Z_q[x]/(x^N + 1).

Implements the merged NTT of Longa--Naehrig / Poppelmann et al. [65] that the
paper adopts: twiddle factors are stored in bit-reversed order so they are
read sequentially within each butterfly stage (the spatial-locality
optimization the paper cites for GPU twiddle access).

Forward transform: Cooley--Tukey decimation-in-time with the 2N-th root psi
folded in (no pre-multiplication pass).  Inverse: Gentleman--Sande with
psi^-1 folded in and a final N^-1 scaling.  Evaluation j of either is the
value at ``psi**(2 * bit_reverse(j) + 1)``.

:class:`NttContext` runs those butterfly stages on one limb, vectorized
per stage with numpy, on every word size; it is the ``reference``
backend's kernel and the oracle of the stacked one.
:class:`BatchedNttContext` transforms a whole limb stack and binds one of
three kernel classes (see :func:`repro.fhe.modmath.stack_native_class`)
when it is built:

* ``int64`` (every q < 2**31): a four-step transform, N = n1 * n2 — two
  batched float64 matrix products around one pointwise twiddle scale,
  the bit-reversed layout baked into the matrices' row / column order.
  Exact because each residue is split into ``pieces`` words of ``bits``
  bits and the matrix ``[W | W * 2**bits | ...] mod q`` absorbs the
  shifts: a product is below ``(2**bits - 1) * (q - 1)``, a dot product
  sums ``pieces * max(n1, n2)`` of them, and ``pieces`` is the smallest
  count that keeps that sum below 2**53 — so every partial sum is an
  integer float64 holds exactly, in whatever order BLAS adds;
* ``dword`` (q < 2**61, the paper's 54-bit word): butterflies in uint64
  with per-root Shoup precomputed quotients — one MULHI + two low
  multiplies + one conditional subtraction per twiddle product, the
  constant-multiply sequence GME's NTT kernels use (as matrix products
  a 54 x 54-bit multiply would take >= 8 partial products plus a
  double-word recombination: not attempted);
* ``object`` (61+ bits, or :func:`repro.fhe.modmath.force_object_dtype`):
  the generic stack kernels, exact for any word size.

Tables are a pure function of ``(q, N)``: :func:`ntt_context` and
:func:`batched_ntt_context` build them once per process, read-only, and
share them between every backend instance (see :class:`_TableCache`).
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

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


@functools.lru_cache(maxsize=64)
def bit_reverse_permutation(n: int) -> np.ndarray:
    """Index array mapping i -> bit-reversed i for a power-of-two n.

    One read-only array per ``n``, shared by every caller.
    """
    bits = (n - 1).bit_length()
    index = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((index >> b) & 1) << (bits - 1 - b)
    rev.setflags(write=False)
    return rev


def _freeze(tables) -> int:
    """Make every table read-only; their total size in bytes."""
    nbytes = 0
    for table in tables:
        if table is not None:
            table.setflags(write=False)
            nbytes += table.nbytes
    return nbytes


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
        rev = bit_reverse_permutation(n)
        self.psi_rev = self._power_table(self.psi)[rev]
        self.psi_inv_rev = self._power_table(self.psi_inv)[rev]
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
        #: Bytes of table storage; the tables are shared between backends
        #: and threads (see :func:`ntt_context`), hence read-only.
        self.nbytes = _freeze((self.psi_rev, self.psi_inv_rev,
                               self.psi_rev_shoup, self.psi_inv_rev_shoup))

    def _power_table(self, base: int) -> np.ndarray:
        """``base**i mod q`` for i < n, in log2 n doubling passes."""
        q, n = self.q, self.n
        powers = np.ones(n, dtype=limb_dtype(q))
        m = 1
        while m < n:
            # base holds the m-th power of the root here.
            powers[m:2 * m] = mulmod_vec(powers[:m], base, q)
            base = mulmod(base, base, q)
            m *= 2
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


def _split_plan(q_max: int, width: int) -> tuple[int, int]:
    """``(pieces, bits)`` for the four-step transform's float64 products.

    A residue below ``q_max`` is cut into ``pieces`` words of ``bits``
    bits; a dot product then sums ``pieces * width`` terms, each at most
    ``(2**bits - 1) * (q_max - 1)``.  Returns the smallest ``pieces`` that
    keeps that sum below 2**53, where float64 arithmetic on integers is
    exact.
    """
    word = (q_max - 1).bit_length()
    for pieces in range(1, 9):
        bits = -(-word // pieces)
        if pieces * width * ((1 << bits) - 1) * (q_max - 1) < 1 << 53:
            return pieces, bits
    raise ValueError(
        f"no split of a {word}-bit residue into <= 8 words keeps a "
        f"{width}-term dot product below 2**53")


def _stacked_twiddles(ctxs: list[NttContext], dtype) -> tuple:
    """``(psi_rev, psi_inv_rev, n_inv_col)`` stacked over per-limb tables:
    what the butterfly stages read."""
    return (np.stack([np.asarray(c.psi_rev, dtype=dtype) for c in ctxs]),
            np.stack([np.asarray(c.psi_inv_rev, dtype=dtype) for c in ctxs]),
            np.array([c.n_inv for c in ctxs],
                     dtype=dtype).reshape(len(ctxs), 1))


class BatchedNttContext:
    """Negacyclic NTT over a whole stack of RNS limbs at once.

    Where :class:`NttContext` transforms one limb, this context transforms
    a ``(limbs, N)`` array with per-row tables, the batching GME exploits
    on the GPU (each limb is an independent instance of the same kernel).
    The kernel class is bound here, once (see the module docstring): two
    float64 matrix products per transform when every modulus is below
    2**31, uint64 Shoup butterflies with per-row quotient tables up to the
    paper's 54-bit word, the generic stack kernels beyond.  Results are
    bit-exact with the per-limb transforms on every tier: all of them do
    exact integer arithmetic, only its arrangement differs.

    Every table is read-only; the contexts :func:`batched_ntt_context`
    hands out are shared between backends and threads.

    Parameters
    ----------
    moduli:
        NTT-friendly primes, one per limb (each ``q === 1 mod 2n``).
    n:
        Power-of-two transform length (the ring degree N).
    """

    #: Per-row tables; ``rows`` slices whichever of them the tier built.
    _PER_ROW = ("q_col", "q_grid",
                "psi_rev", "psi_inv_rev", "n_inv_col",
                "psi_rev_shoup", "psi_inv_rev_shoup", "n_inv_shoup_col",
                "fwd_left", "fwd_twiddle", "fwd_right",
                "inv_right", "inv_twiddle", "inv_left")

    def __init__(self, moduli, n: int):
        self.moduli = tuple(moduli)
        self.n = n
        #: The context whose storage this one views (``rows``), if any.
        self.owner = None
        #: int64 tier only: each limb as the four-step's ``n1 x n2``
        #: matrix, and how a residue is cut into float64 words.
        self.grid = self.pieces = self.bits = None
        for name in self._PER_ROW:
            setattr(self, name, None)
        ctxs = [ntt_context(q, n) for q in self.moduli]
        self.klass = stack_native_class(self.moduli)
        dtype = np.int64 if self.klass != "object" else object
        rows = len(ctxs)
        self.q_col = np.array(self.moduli, dtype=dtype).reshape(rows, 1)
        if self.klass != "object":
            # Modulus column in the kernels' shape: (rows, n1, n2) grids,
            # (rows, blocks, half-block) butterfly stages.
            self.q_grid = self.q_col.reshape(rows, 1, 1)
        if self.klass == "int64":
            self._bind_matmul(ctxs)
        else:
            self.psi_rev, self.psi_inv_rev, self.n_inv_col = \
                _stacked_twiddles(ctxs, dtype)
        if self.klass == "dword":
            self._bind_shoup(ctxs)
        #: Bytes of table storage this context owns (0 for a view).
        self.nbytes = _freeze(getattr(self, name) for name in self._PER_ROW)

    def _bind_shoup(self, ctxs: list[NttContext]) -> None:
        """Stack the Shoup quotients beside the double-word twiddles."""
        # Rows below 2**31 have no per-limb Shoup tables (they run the
        # int64 path solo) but need them inside a mixed stack.
        self.psi_rev_shoup = np.stack(
            [c.psi_rev_shoup if c.psi_rev_shoup is not None
             else shoup_precompute_vec(c.psi_rev, c.q) for c in ctxs])
        self.psi_inv_rev_shoup = np.stack(
            [c.psi_inv_rev_shoup if c.psi_inv_rev_shoup is not None
             else shoup_precompute_vec(c.psi_inv_rev, c.q) for c in ctxs])
        self.n_inv_shoup_col = np.array(
            [(c.n_inv << 64) // c.q for c in ctxs],
            dtype=np.uint64).reshape(len(ctxs), 1)

    def _bind_matmul(self, ctxs: list[NttContext]) -> None:
        """Gather the four-step matrices from the per-limb power tables.

        With input index ``i = i1 * n2 + i2`` and evaluation exponent
        ``2k + 1``, ``k = k1 + n1 * k2``, the transform factors as
        ``psi**((2k + 1) i) = psi**(n2 (2 k1 + 1) i1) * psi**((2 k1 + 1)
        i2) * psi**(2 n1 k2 i2)``: a left matrix over ``i1``, a pointwise
        twiddle, a right matrix over ``i2``.  Ordering the left matrix's
        rows and the right one's columns by bit-reversed ``k1`` / ``k2``
        makes the ``(n1, n2)`` result, read row-major, the bit-reversed
        evaluation layout.  The inverse runs the same chain backwards
        with negated exponents and ``N**-1`` folded into its twiddles.
        """
        n, rows = self.n, len(ctxs)
        n1 = 1 << ((n.bit_length() - 1) // 2)
        n2 = n // n1
        self.grid = (n1, n2)
        self.pieces, self.bits = _split_plan(max(self.moduli), max(n1, n2))
        q = self.q_grid
        # psi**e for e < 2N out of the bit-reversed tables, by
        # psi**(N + e) = -psi**e; psi**-e is entry 2N - e.
        natural = np.stack([c.psi_rev for c in ctxs])[
            :, bit_reverse_permutation(n)]
        powers = np.concatenate([natural, self.q_col - natural], axis=1)
        k1 = 2 * bit_reverse_permutation(n1) + 1
        k2 = bit_reverse_permutation(n2)
        left = n2 * np.outer(k1, np.arange(n1))
        twiddle = np.outer(k1, np.arange(n2))
        right = 2 * n1 * np.outer(np.arange(n2), k2)

        def gather(exponents):
            return powers[:, exponents % (2 * n)]

        def words(matrix, axis):
            # [W | W * 2**bits | ...] (axis 2) or the same stacked
            # downwards (axis 1), reduced: the operand's shifts, absorbed.
            return np.ascontiguousarray(np.concatenate(
                [(matrix << (p * self.bits)) % q
                 for p in range(self.pieces)], axis=axis), dtype=np.float64)

        n_inv = np.array([c.n_inv for c in ctxs]).reshape(rows, 1, 1)
        self.fwd_left = words(gather(left), 2)
        self.fwd_twiddle = np.ascontiguousarray(gather(twiddle))
        self.fwd_right = words(gather(right), 1)
        self.inv_right = words(gather(-right.T), 1)
        self.inv_twiddle = np.ascontiguousarray(
            gather(-twiddle) * n_inv % q)
        self.inv_left = words(gather(-left.T), 2)

    def rows(self, start: int, stop: int) -> "BatchedNttContext":
        """Context for limbs ``[start, stop)``, sharing table storage as
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
        out.__dict__.update(self.__dict__)
        out.moduli = self.moduli[rows]
        out.owner = self.owner or self
        out.nbytes = 0
        for name in self._PER_ROW:
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
        # kernels reshape the copy and write through the views.
        a = np.empty(stack.shape, dtype=np.int64)
        np.remainder(stack, self.q_col, out=a)
        return a

    def forward(self, stack: np.ndarray) -> np.ndarray:
        """Batched negacyclic NTT: coefficient stack -> evaluation stack."""
        stack = np.asarray(stack)
        a = self._reduced(stack)
        if a is None:
            return self._forward_generic(stack)
        if self.klass == "dword":
            return self._forward_shoup(a)
        a = a.reshape(-1, *self.grid)
        a = self._matmul_mod(self.fwd_left, self._words(a, 1))
        a *= self.fwd_twiddle       # int64, products < 2**62
        a %= self.q_grid
        a = self._matmul_mod(self._words(a, 2), self.fwd_right)
        return a.reshape(stack.shape)

    def inverse(self, stack: np.ndarray) -> np.ndarray:
        """Batched inverse NTT: evaluation stack -> coefficient stack."""
        stack = np.asarray(stack)
        a = self._reduced(stack)
        if a is None:
            return self._inverse_generic(stack)
        if self.klass == "dword":
            return self._inverse_shoup(a)
        a = a.reshape(-1, *self.grid)
        a = self._matmul_mod(self._words(a, 2), self.inv_right)
        a *= self.inv_twiddle       # int64, products < 2**62
        a %= self.q_grid
        a = self._matmul_mod(self.inv_left, self._words(a, 1))
        return a.reshape(stack.shape)

    # -- int64 tier: four-step transform, exact float64 matmuls ----------

    def _words(self, a: np.ndarray, axis: int) -> np.ndarray:
        """The float64 words of reduced ``(rows, n1, n2)`` residues, word
        p + 1 stacked below (``axis`` 1) or beside (``axis`` 2) word p."""
        pieces, bits = self.pieces, self.bits
        shape = list(a.shape)
        shape.insert(axis, pieces)
        words = np.empty(shape)
        mask = (1 << bits) - 1
        for p in range(pieces):
            word = a >> (p * bits) if p else a
            words[(slice(None),) * axis + (p,)] = \
                word & mask if p < pieces - 1 else word
        shape[axis:axis + 2] = [pieces * a.shape[axis]]
        return words.reshape(shape)

    def _matmul_mod(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``left @ right mod q`` per limb: one operand a table
        ``[W | W * 2**bits | ...]`` (left) or the same stacked downwards
        (right), the other the matching :meth:`_words` of the residues.
        Every partial sum is an integer below 2**53, so float64 is exact.
        """
        out = np.matmul(left, right).astype(np.int64)
        out %= self.q_grid
        return out

    # -- dword tier: Shoup butterflies in uint64 --------------------------

    def _forward_shoup(self, a: np.ndarray) -> np.ndarray:
        """Cooley--Tukey stages over the reduced copy ``a``, in place."""
        n, rows = self.n, len(self.moduli)
        q = self.q_grid.view(np.uint64)
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
            v = _shoup_mulmod_u64(hi, tw_u[:, m:2 * m, None],
                                  shoup[:, m:2 * m, None], q)
            # Both results are fresh arrays, so writing the halves back
            # cannot alias the operands.
            s = _addmod_u64(lo, v, q)
            block[:, :, t:] = _submod_u64(lo, v, q)
            block[:, :, :t] = s
            m *= 2
        return a

    def _inverse_shoup(self, a: np.ndarray) -> np.ndarray:
        """Gentleman--Sande stages over the reduced copy ``a``, then the
        ``N**-1`` scaling."""
        n, rows = self.n, len(self.moduli)
        q = self.q_grid.view(np.uint64)
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
            d = _submod_u64(lo, hi, q)
            block[:, :, :t] = _addmod_u64(lo, hi, q)
            block[:, :, t:] = _shoup_mulmod_u64(
                d, tw_u[:, h:2 * h, None], shoup[:, h:2 * h, None], q)
            t *= 2
            m = h
        return _shoup_mulmod_u64(au, self.n_inv_col.view(np.uint64),
                                 self.n_inv_shoup_col,
                                 q[:, :, 0]).view(np.int64)

    # -- object tier: the generic kernels, exact for any word size -------

    def _generic_twiddles(self) -> tuple:
        """The butterfly tables of the generic stages.  An int64-tier
        context keeps none, so its fallback (object-dtype input, or
        ``force_object_dtype`` around it) stacks them per call."""
        if self.klass == "int64":
            return _stacked_twiddles(
                [ntt_context(q, self.n) for q in self.moduli], np.int64)
        return self.psi_rev, self.psi_inv_rev, self.n_inv_col

    def _forward_generic(self, stack: np.ndarray) -> np.ndarray:
        moduli, n = self.moduli, self.n
        rows = len(moduli)
        a = reduce_stack(np.array(stack, copy=True, order="C"), moduli)
        t = n
        m = 1
        psi_rev, _, _ = self._generic_twiddles()
        while m < n:
            t //= 2
            twiddles = psi_rev[:, m:2 * m, None]
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
        _, psi_inv_rev, n_inv_col = self._generic_twiddles()
        while m > 1:
            h = m // 2
            twiddles = psi_inv_rev[:, h:2 * h, None]
            block = a.reshape(rows, h, 2 * t)
            u = block[:, :, :t]
            v = block[:, :, t:]
            s = addmod_stack(u, v, moduli)
            d = mulmod_stack(submod_stack(u, v, moduli), twiddles, moduli)
            block[:, :, :t] = s
            block[:, :, t:] = d
            t *= 2
            m = h
        return mulmod_stack(a, n_inv_col, moduli)


def _find_run(basis: tuple[int, ...], run: tuple[int, ...]) -> int | None:
    """Index at which ``run`` occurs as consecutive limbs of ``basis``."""
    try:
        start = basis.index(run[0])
    except ValueError:
        return None
    return start if basis[start:start + len(run)] == run else None


class _TableCache:
    """Process-wide LRU of NTT tables, bounded in bytes.

    Tables are a pure function of the modulus (or basis), the ring degree
    and whether :func:`modmath.force_object_dtype` was active, so one
    copy serves every backend instance, tenant context and worker thread
    of the process; all of it is read-only.  Two kinds of entry:

    * ``(q, N)`` -> :class:`NttContext`: the bit-reversed power tables,
      ``16 * N`` bytes, ``32 * N`` with the Shoup quotients of a 31..60-bit
      modulus (object-dtype tables count their pointers only);
    * ``(moduli, N)`` -> :class:`BatchedNttContext`.  A basis that is a
      run of limbs of a cached stack is a view of it and owns nothing;
      any other basis copies its limbs' tables into a fresh stack:
      ``32 * N`` bytes per limb on the double-word tier,
      ``16 * N + 16 * pieces * (n1**2 + n2**2)`` on the int64 tier
      (80 KB per limb at N = 2**10, 448 KB at N = 2**12).

    ``max_bytes`` bounds the sum over entries; the entry count is bounded
    by it too, each stack owner having at most one view per run of its
    limbs.  Past the budget the least recently used entries go, an
    evicted stack taking its views with it; whoever still holds a context
    keeps it alive, the cache just stops handing it out.  Builds run
    under the lock, so two threads asking for the same tables get the
    same objects.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        # Re-entrant: building a stack looks up its per-limb contexts.
        self._lock = threading.RLock()

    def get(self, key: tuple, build):
        """The tables cached under ``key = (q or moduli, n, forced)``,
        built as ``build(*key[:2])`` on a miss."""
        with self._lock:
            tables = self._entries.get(key)
            if tables is not None:
                self._entries.move_to_end(key)
                return tables
            tables = build(*key[:2])
            self._entries[key] = tables
            self.nbytes += tables.nbytes
            while self.nbytes > self.max_bytes and len(self._entries) > 1:
                evicted = self._entries.popitem(last=False)[1]
                self.nbytes -= evicted.nbytes
                for view in [k for k, v in self._entries.items()
                             if getattr(v, "owner", None) is evicted]:
                    del self._entries[view]
            return tables

    def stack_or_view(self, moduli: tuple[int, ...],
                      n: int) -> BatchedNttContext:
        """A view of a cached stack that holds ``moduli`` as a run of its
        limbs on the same kernel tier, else a fresh stack."""
        want = stack_native_class(moduli)
        with self._lock:
            for cached in self._entries.values():
                if (isinstance(cached, BatchedNttContext)
                        and cached.owner is None and cached.n == n
                        and cached.klass == want):
                    start = _find_run(cached.moduli, moduli)
                    if start is not None:
                        return cached.rows(start, start + len(moduli))
        return BatchedNttContext(moduli, n)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


_TABLE_CACHE = _TableCache(max_bytes=512 << 20)


def ntt_context(q: int, n: int) -> NttContext:
    """The process-wide, read-only :class:`NttContext` for ``(q, n)``."""
    return _TABLE_CACHE.get((q, n, modmath._OBJECT_ONLY), NttContext)


def batched_ntt_context(moduli, n: int) -> BatchedNttContext:
    """The process-wide, read-only stacked tables for an RNS basis.

    Bases that are a contiguous run of limbs of an already-cached basis —
    every level drop walks down a prefix, rescale transforms the dropped
    limb alone, ModDown the special primes alone, ModUp the extended
    basis on either side of a digit — share its stacked tables as row
    views; only genuinely new bases (e.g. the extended key-switching
    basis below the top level) allocate fresh stacks.
    """
    return _TABLE_CACHE.get((tuple(moduli), n, modmath._OBJECT_ONLY),
                       _TABLE_CACHE.stack_or_view)


def clear_table_cache() -> None:
    """Drop every shared table; the next context builds its own again."""
    _TABLE_CACHE.clear()


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
