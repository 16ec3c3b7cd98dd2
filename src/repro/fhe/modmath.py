"""Modular arithmetic primitives for RNS-CKKS.

All FHE building blocks in the paper reduce to 64-bit-wide scalar modular
additions and multiplications (paper section 2.2).  This module provides:

* scalar Barrett reduction (classic and the "modified Barrett" variant of
  Shivdikar et al. [76] that uses a single conditional subtraction) and
  scalar Montgomery multiplication (:class:`MontgomeryContext`): the
  test oracles and the ISA model's sizing references for what a MOD-unit
  computes,
* vectorized numpy backends.  Products of two word-size residues overflow
  64-bit integers for the paper's 54-bit primes, so there are three paths:

  - ``int64`` fast path: a single machine multiply, exact whenever
    ``q < 2**31`` (products < 2**62); used by the toy/test presets;
  - double-word native path: exact for any ``q < 2**56`` (the paper's
    54-bit word and its 55-bit ``q_0`` / special primes).  A product is
    one wrapping int64 multiply, corrected by two float64 quotient
    estimates (:func:`_mulmod_f64`) — arrays, constants and NTT twiddles
    alike, with no 32-bit splits and no 128-bit emulation;
  - object-dtype fallback: numpy arrays of Python ints, exact for any
    word size; moduli of 56+ bits take this path.

The generic kernels (``*_vec`` per limb, ``*_stack`` across a limb stack)
choose the path automatically per call; see :func:`mulmod_vec`.  The hot
paths do not pay that choice per call: a ``BatchedNttContext`` binds its
tier, modulus columns and tables when it is built and runs that tier's
kernel directly (one exact float64 matrix product per factor of N on
both native tiers, :class:`BoundModMatmul`, with int64 twiddle scales
below 2**31 and :func:`_mulmod_f64` ones up to 2**56), both base
conversions of a key switch are the same bound matmul on both native
tiers (one table word and a plain ``%`` below 2**31), and the per-level
constant multiplies of the key-switch datapath are :class:`BoundScalarMul`
objects held by the ``KeySwitchContext`` (see "The three dtype paths" in
``backend/README.md``).  For benchmarking (and for pitting the native
paths against the bignum oracle) :func:`force_object_dtype` disables both
native paths — bound contexts read that flag once per call.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

#: Moduli strictly below this bound can use the exact int64 vector path
#: (one machine multiply per product).
INT64_SAFE_MODULUS = 1 << 31

#: Moduli strictly below this bound can use the exact double-word native
#: path (one int64 product and two float64 quotient estimates,
#: :func:`_mulmod_f64`).  The 56-bit ceiling keeps the first estimate
#: within 41 of the true quotient, so the remainder it leaves stays inside
#: int64 (``41 q < 2**62``).
NATIVE_SAFE_MODULUS = 1 << 56

#: When True, every vector kernel takes the object-dtype path regardless
#: of modulus size (see :func:`force_object_dtype`).
_OBJECT_ONLY = False


@contextlib.contextmanager
def force_object_dtype():
    """Disable the int64 and double-word paths inside the ``with`` block.

    Used by benchmarks to measure the native-vs-object gap at the paper's
    word size, and by tests to run the bignum path as an oracle on
    parameters that would normally dispatch natively.  Contexts built
    inside the block (NTT tables, KeySwitchContext) also classify their
    moduli as object-only.
    """
    global _OBJECT_ONLY
    saved = _OBJECT_ONLY
    _OBJECT_ONLY = True
    try:
        yield
    finally:
        _OBJECT_ONLY = saved


def limb_dtype(q: int) -> type:
    """Storage dtype for residues mod ``q``: int64 natively, else object.

    This is the single source of truth for the repo-wide dtype
    convention (poly storage, NTT tables, serialization load path):
    residues of moduli below :data:`NATIVE_SAFE_MODULUS` live in int64
    arrays, anything wider falls back to Python-int object arrays.
    """
    return np.int64 if _is_native(q) else object


def barrett_precompute(q: int, k: int | None = None) -> tuple[int, int]:
    """Return ``(mu, k)`` such that ``mu = floor(4**k / q)`` for Barrett.

    ``k`` defaults to the bit length of ``q``; ``mu`` then fits in ``k+1``
    bits, matching the precomputed factor an RTL MOD-unit would hold.
    """
    if q <= 1:
        raise ValueError(f"modulus must be > 1, got {q}")
    if k is None:
        k = q.bit_length()
    return (1 << (2 * k)) // q, k


def barrett_reduce(x: int, q: int, mu: int, k: int) -> int:
    """Classic Barrett reduction of ``x < q**2`` modulo ``q``.

    Uses the precomputed ``mu = floor(4**k / q)``.  At most two conditional
    subtractions are needed; this mirrors the emulated sequence the vanilla
    MI100 executes (Table 4 row "Vanilla").
    """
    t = (x * mu) >> (2 * k)
    r = x - t * q
    while r >= q:
        r -= q
    return r


def barrett_reduce_single(x: int, q: int, mu: int, k: int) -> int:
    """Modified Barrett reduction with a single conditional subtraction.

    Follows the improved algorithm of [76] (one comparison per reduction,
    minimizing branch divergence): the quotient estimate uses ``4**k / q``
    with ``k = bitlen(q) + 1`` guard bits so the remainder estimate is off by
    at most one multiple of ``q``.
    """
    t = (x * mu) >> (2 * k)
    r = x - t * q
    if r >= q:
        r -= q
    return r


def barrett_precompute_single(q: int) -> tuple[int, int]:
    """Precompute ``(mu, k)`` for :func:`barrett_reduce_single`.

    One guard bit keeps the quotient estimate within 1 of the true quotient
    for all ``x < q**2``, which is what makes a single subtraction enough.
    """
    k = q.bit_length() + 1
    return (1 << (2 * k)) // q, k


def addmod(a: int, b: int, q: int) -> int:
    """Modular addition of reduced operands via conditional subtraction."""
    s = a + b
    return s - q if s >= q else s


def submod(a: int, b: int, q: int) -> int:
    """Modular subtraction of reduced operands via conditional addition."""
    d = a - b
    return d + q if d < 0 else d


def mulmod(a: int, b: int, q: int) -> int:
    """Scalar modular multiplication (arbitrary precision, always exact)."""
    return (a * b) % q


def powmod(base: int, exp: int, q: int) -> int:
    """Modular exponentiation (wraps :func:`pow`)."""
    return pow(base, exp, q)


def invmod(a: int, q: int) -> int:
    """Modular inverse of ``a`` modulo ``q`` (requires gcd(a, q) = 1)."""
    a %= q
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse modulo {q}")
    return pow(a, -1, q)


class MontgomeryContext:
    """Montgomery multiplication context for an odd modulus.

    Used in tests as an independent oracle against the Barrett paths, and by
    the ISA model to size the vanilla emulated instruction sequences.
    """

    def __init__(self, q: int):
        if q % 2 == 0:
            raise ValueError("Montgomery form requires an odd modulus")
        self.q = q
        self.rbits = q.bit_length()
        self.r = 1 << self.rbits
        self.rmask = self.r - 1
        self.rinv = invmod(self.r % q, q)
        # q' such that q*q' === -1 (mod r)
        self.qprime = (-invmod(q, self.r)) % self.r

    def to_mont(self, a: int) -> int:
        """Map ``a`` into Montgomery form ``a * r mod q``."""
        return (a << self.rbits) % self.q

    def from_mont(self, a: int) -> int:
        """Map out of Montgomery form."""
        return (a * self.rinv) % self.q

    def mulmod(self, a_mont: int, b_mont: int) -> int:
        """Multiply two Montgomery-form residues (REDC algorithm)."""
        t = a_mont * b_mont
        m = ((t & self.rmask) * self.qprime) & self.rmask
        u = (t + m * self.q) >> self.rbits
        return u - self.q if u >= self.q else u


def _is_int64_safe(q: int) -> bool:
    return q < INT64_SAFE_MODULUS and not _OBJECT_ONLY


def native_class(q: int) -> str:
    """Kernel class for one modulus: ``"int64"``, ``"dword"``, ``"object"``.

    ``int64`` means a single machine multiply is exact (q < 2**31);
    ``dword`` means one int64 product and two float64 quotient estimates
    are (q < 2**56, :func:`_mulmod_f64`); ``object`` is the
    arbitrary-precision fallback.
    """
    if q < INT64_SAFE_MODULUS and not _OBJECT_ONLY:
        return "int64"
    if q < NATIVE_SAFE_MODULUS and not _OBJECT_ONLY:
        return "dword"
    return "object"


def _is_native(q: int) -> bool:
    """True when residues mod ``q`` can use a machine-integer path."""
    return q < NATIVE_SAFE_MODULUS and not _OBJECT_ONLY


def _as_object_array(a: np.ndarray) -> np.ndarray:
    return a.astype(object) if a.dtype != object else a


# -- the double-word product --------------------------------------------------
#
# numpy has no 128-bit integer, and a GPU's 32-bit datapath has none either:
# it builds a 64-bit modular product out of 32-bit pieces (paper section 2.2
# / Table 4).  Here the pieces are not needed.  The product's low 64 bits
# are one wrapping int64 multiply, and the quotient that turns them into
# the remainder is estimated in float64 closely enough to be exact.


def _mulmod_f64(a, b, b_f64, q, q_inv):
    """``a * b mod q`` for ``q < 2**56``, ``|a| < q``, ``0 <= b < q``.

    ``a`` and ``b`` are int64; ``b_f64`` is ``b`` as float64 (or ``b``
    itself, converted inside the multiply); ``q`` is int64 and ``q_inv``
    its float64 reciprocal — scalars or columns that broadcast against
    the operands, one modulus per row, any mix of widths.  Returns int64
    residues in ``[0, q)``.

    Round 1.  ``k = rint(fl(a) * fl(b) * fl(1/q))`` makes five roundings
    of relative size ``u = 2**-53`` — three conversions, two products —
    on a value below q, so ``|k - ab/q| < 5.01 u q + 1/2``, which is
    below 41 for ``q < 2**56``.  The true remainder ``r = ab - kq`` then
    has ``|r| < 41 q < 2**62``, and wrapping int64 arithmetic computes it
    exactly as ``(ab mod 2**64) - (kq mod 2**64)``.

    Round 2.  ``k = rint(fl(r) * fl(1/q))`` makes three roundings on
    ``|r| / q < 41``: within ``3.01 u * 41 + 1/2 < 1`` of ``r / q``, so
    ``r - kq`` lands in ``(-q, q)``.  A negative value reads as itself
    plus ``2**64`` in uint64, and adding q wraps it into ``[0, q)``,
    below itself; a non-negative one only grows — ``min(u, u + q)`` in
    uint64 is the residue.
    """
    k = np.multiply(a, b_f64, dtype=np.float64)
    k *= q_inv
    np.rint(k, out=k)
    r = a * b
    kq = k.astype(np.int64)
    kq *= q
    r -= kq
    np.multiply(r, q_inv, out=k)
    np.rint(k, out=k)
    kq[...] = k
    kq *= q
    r -= kq
    np.add(r, q, out=kq)
    u = r.view(np.uint64)
    return np.minimum(u, kq.view(np.uint64), out=u).view(np.int64)


@functools.lru_cache(maxsize=None)
def _f64_columns(moduli: tuple[int, ...],
                 ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(q, 1 / q)`` int64 / float64 columns of a basis, shaped
    ``(L, 1, ..)``: what binds :func:`_mulmod_f64` to it.  Cached per
    basis; callers must never write into them."""
    q_max = max(moduli)
    # Round 1 within 41 of the quotient, its remainder inside int64.
    assert 5.01 * q_max / 2**53 + 0.5 < 41 and 41 * q_max < 1 << 62, q_max
    q = np.array(moduli, dtype=np.int64).reshape(
        (len(moduli),) + (1,) * (ndim - 1))
    return q, 1.0 / q


def addmod_vec(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Vector modular addition of reduced operands."""
    if _is_native(q) and a.dtype != object and b.dtype != object:
        s = a.astype(np.int64) + b.astype(np.int64)
        return np.where(s >= q, s - q, s)
    s = _as_object_array(a) + _as_object_array(b)
    return np.where(s >= q, s - q, s)


def submod_vec(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Vector modular subtraction of reduced operands."""
    if _is_native(q) and a.dtype != object and b.dtype != object:
        d = a.astype(np.int64) - b.astype(np.int64)
        return np.where(d < 0, d + q, d)
    d = _as_object_array(a) - _as_object_array(b)
    return np.where(d < 0, d + q, d)


def mulmod_vec(a: np.ndarray, b: np.ndarray | int, q: int) -> np.ndarray:
    """Vector modular multiplication of **reduced** operands.

    Dispatches on the modulus: the int64 fast path when products cannot
    overflow (``q < 2**31``), the double-word :func:`_mulmod_f64` for
    ``q < 2**56`` (the paper's 54-bit primes), and the object-dtype
    arbitrary-precision path beyond that.  Like the other vector kernels,
    array operands must already be residues in ``[0, q)`` — signed or
    oversized inputs go through :func:`reduce_vec` first (integer scalars
    ``b`` are reduced internally).
    """
    b_is_scalar = isinstance(b, (int, np.integer))
    if a.dtype != object and (b_is_scalar or b.dtype != object):
        b = int(b) % q if b_is_scalar else b.astype(np.int64, copy=False)
        if _is_int64_safe(q):
            return a.astype(np.int64) * b % q
        if _is_native(q):
            return _mulmod_f64(a.astype(np.int64, copy=False), b, b,
                               np.int64(q), 1.0 / q)
    bo = b if b_is_scalar else _as_object_array(b)
    return (_as_object_array(a) * bo) % q


def negmod_vec(a: np.ndarray, q: int) -> np.ndarray:
    """Vector modular negation."""
    if _is_native(q) and a.dtype != object:
        return np.where(a == 0, 0, q - a.astype(np.int64))
    ao = _as_object_array(a)
    return np.where(ao == 0, ao * 0, q - ao)


def reduce_vec(a: np.ndarray, q: int) -> np.ndarray:
    """Fully reduce a vector of (possibly signed / oversized) integers.

    Returns the storage dtype of :func:`limb_dtype`: object input over a
    native modulus is reduced exactly and cast down to int64.
    """
    if _is_native(q) and a.dtype != object:
        return a.astype(np.int64) % q
    reduced = _as_object_array(a) % q
    if _is_native(q):
        return reduced.astype(np.int64)
    return reduced


# -- limb-stacked (2-D) variants ---------------------------------------------
#
# The stacked compute backend stores all RNS limbs of a polynomial as one
# ``limbs x N`` array with a per-limb modulus vector, so every elementwise
# kernel below executes once across the whole stack instead of once per limb
# (GME section 2.2: per-limb kernels are independent and batchable).  The
# dtype auto-selection mirrors the 1-D variants: int64 storage whenever
# *every* modulus in the stack is below 2**56 (with the double-word multiply
# kicking in past 2**31), object dtype only beyond that.


@functools.lru_cache(maxsize=None)
def _basis_class(moduli: tuple[int, ...]) -> str:
    if all(q < INT64_SAFE_MODULUS for q in moduli):
        return "int64"
    if all(q < NATIVE_SAFE_MODULUS for q in moduli):
        return "dword"
    return "object"


def stack_native_class(moduli: tuple[int, ...] | list[int]) -> str:
    """Kernel class for a basis: ``"int64"``, ``"dword"`` or ``"object"``."""
    if _OBJECT_ONLY:
        return "object"
    return _basis_class(tuple(moduli))


def stack_is_native(moduli: tuple[int, ...] | list[int]) -> bool:
    """True when the whole stack stores int64 (every modulus < 2**56)."""
    return stack_native_class(moduli) != "object"


@functools.lru_cache(maxsize=None)
def _q_column_cached(moduli: tuple[int, ...], ndim: int,
                     use_int64: bool) -> np.ndarray:
    dtype = np.int64 if use_int64 else object
    q = np.array(list(moduli), dtype=dtype)
    return q.reshape((len(moduli),) + (1,) * (ndim - 1))


def _q_column(moduli, ndim: int, use_int64: bool) -> np.ndarray:
    """Modulus vector shaped ``(L, 1, ..)`` for broadcasting over a stack.

    Cached per basis; callers must never write into the returned array.
    """
    return _q_column_cached(tuple(moduli), ndim, use_int64)


def _stack_native_ok(moduli, *arrays) -> bool:
    return stack_is_native(moduli) and all(
        isinstance(a, (int, np.integer)) or a.dtype != object
        for a in arrays)


def stack_residues(limbs: list[np.ndarray],
                   moduli: tuple[int, ...] | list[int]) -> np.ndarray:
    """Stack per-limb residue vectors into one ``(limbs, N)`` array.

    Uses int64 when every modulus is below 2**56 (the paper's 54-bit word
    included), object dtype otherwise, exactly as in 1-D.
    """
    if len(limbs) != len(moduli):
        raise ValueError("limb count does not match modulus count")
    if _stack_native_ok(moduli, *limbs):
        return np.stack([np.asarray(limb, dtype=np.int64) for limb in limbs])
    return np.stack([np.asarray(limb).astype(object) for limb in limbs])


def unstack_residues(stack: np.ndarray) -> list[np.ndarray]:
    """Per-limb row views of a stacked array (no copies)."""
    return list(stack)


def addmod_stack(a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
    """Stacked modular addition of reduced operands, row i modulo q_i."""
    use64 = _stack_native_ok(moduli, a, b)
    qcol = _q_column(moduli, a.ndim, use64)
    s = a + b
    if use64:
        # Branchless conditional subtraction: subtract q, then add it back
        # where the result went negative (sign-mask trick; ~3x faster than
        # a masked ufunc and exact since s - q is in (-q, q)).
        s -= qcol
        s += qcol & (s >> 63)
        return s
    return np.where(s >= qcol, s - qcol, s)


def submod_stack(a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
    """Stacked modular subtraction of reduced operands."""
    use64 = _stack_native_ok(moduli, a, b)
    qcol = _q_column(moduli, a.ndim, use64)
    d = a - b
    if use64:
        # Branchless conditional addition via the sign mask of d.
        d += qcol & (d >> 63)
        return d
    return np.where(d < 0, d + qcol, d)


def mulmod_stack(a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
    """Stacked modular multiplication of **reduced** operands, row i mod q_i.

    ``b`` may be any shape broadcastable against ``a`` (e.g. per-stage
    twiddle columns).  Exact for any word size: the int64 single-multiply
    path below 2**31, :func:`_mulmod_f64` below 2**56, and the
    object-dtype path beyond.  As with :func:`mulmod_vec`, operands must
    be residues in ``[0, q_i)`` (use :func:`reduce_stack` for signed
    values).
    """
    klass = stack_native_class(moduli) if _stack_native_ok(moduli, a, b) \
        else "object"
    if klass == "int64":
        qcol = _q_column(moduli, a.ndim, True)
        p = a * b
        np.remainder(p, qcol, out=p)
        return p
    if klass == "dword":
        if isinstance(b, (int, np.integer)):
            # Reduce integer scalars per modulus, as mulmod_vec does.
            b = np.array([int(b) % int(q) for q in moduli],
                         dtype=np.int64).reshape(
                             (len(moduli),) + (1,) * (a.ndim - 1))
        q_col, q_inv_col = _f64_columns(tuple(moduli), a.ndim)
        return _mulmod_f64(a, b, b, q_col, q_inv_col)
    qcol = _q_column(moduli, a.ndim, False)
    a = a if a.dtype == object else a.astype(object)
    b = b if isinstance(b, (int, np.integer)) or b.dtype == object \
        else b.astype(object)
    return (a * b) % qcol


def negmod_stack(a: np.ndarray, moduli) -> np.ndarray:
    """Stacked modular negation of reduced operands: ``q_i - a`` with
    ``q_i`` mapped to 0 by a compare-and-select, no division."""
    use64 = _stack_native_ok(moduli, a)
    qcol = _q_column(moduli, a.ndim, use64)
    d = qcol - a
    if use64:
        # d in [1, q]: d - q wraps past d unless d == q, where it is 0.
        u = d.view(np.uint64)
        return np.minimum(u, u - qcol.view(np.uint64), out=u).view(np.int64)
    return np.where(a == 0, 0, d)


def reduce_stack(a: np.ndarray, moduli) -> np.ndarray:
    """Fully reduce a stacked array of (possibly signed) integers."""
    use64 = _stack_native_ok(moduli, a)
    qcol = _q_column(moduli, a.ndim, use64)
    if not use64 and a.dtype != object:
        a = a.astype(object)
    return a % qcol


def center_stack(y: np.ndarray, q_col: np.ndarray,
                 half_col: np.ndarray) -> np.ndarray:
    """Centered lift of reduced residues: ``y - q`` where ``y > q // 2``.

    ``q_col`` / ``half_col`` are the moduli and their floor halves as
    columns broadcastable against ``y``.
    """
    if y.dtype == object or q_col.dtype == object:
        return y - np.where(y > half_col, q_col, 0)
    # Sign mask of half - y: all ones exactly where y > half.
    return y - (q_col & ((half_col - y) >> 63))


def scalar_mul_stack(a: np.ndarray, scalars: list[int], moduli) -> np.ndarray:
    """Multiply limb i by ``scalars[i] mod q_i`` across the whole stack."""
    if len(scalars) != len(moduli):
        raise ValueError("need one scalar per limb")
    reduced = [int(s) % int(q) for s, q in zip(scalars, moduli)]
    use64 = _stack_native_ok(moduli, a)
    col = np.array(reduced, dtype=np.int64 if use64 else object)
    col = col.reshape((len(moduli),) + (1,) * (a.ndim - 1))
    return mulmod_stack(a, col, moduli)


class BoundScalarMul:
    """:func:`scalar_mul_stack` for per-limb constants that never change.

    The per-level constants of the key-switch datapath (``hat{Q}_j^{-1}``,
    ``hat{q}_i^{-1}``, ``P^{-1}``, ``q_last^{-1}``) are fixed per modulus
    chain, so everything :func:`scalar_mul_stack` re-derives per call is
    resolved here once: the reduced scalars, the kernel class of the
    basis, and the ready ``(L, 1)`` columns — on the double-word tier the
    constants as float64 too, and the float64 reciprocals of the moduli,
    all :func:`_mulmod_f64` needs.  A call is then a straight line of
    ufuncs, bit-identical to :func:`scalar_mul_stack` in every tier.

    The bound class is that of the *basis*; :func:`force_object_dtype`
    and object-dtype operands are honoured per call (one read of the
    module flag) by falling through to the generic kernel.
    """

    def __init__(self, scalars, moduli):
        self.moduli = tuple(int(q) for q in moduli)
        if len(scalars) != len(self.moduli):
            raise ValueError("need one scalar per limb")
        self.scalars = [int(s) % q for s, q in zip(scalars, self.moduli)]
        self.klass = _basis_class(self.moduli)
        if self.klass == "object":
            return
        self.q_col, self.q_inv_col = _f64_columns(self.moduli, 2)
        self.col = np.array(self.scalars, dtype=np.int64).reshape(-1, 1)
        self.col_f64 = self.col.astype(np.float64)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """Limb i of the 2-D stack ``a`` times ``scalars[i] mod q_i``."""
        if _OBJECT_ONLY or self.klass == "object" or a.dtype == object:
            return scalar_mul_stack(a, self.scalars, self.moduli)
        if self.klass == "int64":
            out = a * self.col
            out %= self.q_col
            return out
        return _mulmod_f64(a, self.col, self.col_f64, self.q_col,
                           self.q_inv_col)

    def sub_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Limb i of ``a - b`` times ``scalars[i] mod q_i`` (reduced
        operands): the subtract-and-scale tail of rescale and ModDown."""
        if (_OBJECT_ONLY or self.klass == "object" or a.dtype == object
                or b.dtype == object):
            return scalar_mul_stack(submod_stack(a, b, self.moduli),
                                    self.scalars, self.moduli)
        # |a - b| < q: both tiers multiply the signed difference.
        out = a - b
        if self.klass == "int64":
            # The product fits, and the floor remainder lands in [0, q)
            # without a sign fix-up.
            out *= self.col
            out %= self.q_col
            return out
        return _mulmod_f64(out, self.col, self.col_f64, self.q_col,
                           self.q_inv_col)


#: Most words an operand or a table entry is cut into before
#: :func:`matmul_split_plan` gives up.
MATMUL_MAX_WORDS = 8


def matmul_split_plan(q_max: int, width: int,
                      operand_modulus: int) -> tuple[int, int, int, int]:
    """``(pieces, bits, table_pieces, table_bits)`` of
    :class:`BoundModMatmul` for ``width``-term dot products of residues
    of ``operand_modulus`` with table entries below ``q_max``.

    For each count of table words, the fewest operand words that keep a
    dot product below 2**53; then one table word if that is possible at
    all (it reduces with a plain ``%``, no quotient estimate), else the
    fewest partial products ``pieces * table_pieces``, ties toward fewer
    table words.
    """
    word = (q_max - 1).bit_length()
    operand_word = (operand_modulus - 1).bit_length()
    plans = []
    for table_pieces in range(1, MATMUL_MAX_WORDS + 1):
        table_bits = -(-word // table_pieces)
        table_max = (1 << table_bits) - 1 if table_pieces > 1 else q_max - 1
        for pieces in range(1, MATMUL_MAX_WORDS + 1):
            bits = -(-operand_word // pieces)
            if pieces * width * ((1 << bits) - 1) * table_max < 1 << 53:
                plans.append((pieces, bits, table_pieces, table_bits))
                break
    if not plans:
        raise ValueError(
            f"no split of {operand_word}-bit operands and {word}-bit table "
            f"entries into <= {MATMUL_MAX_WORDS} words each keeps a "
            f"{width}-term dot product below 2**53")
    return min(plans, key=lambda plan: (plan[2] > 1, plan[0] * plan[2],
                                        plan[2]))


class BoundModMatmul:
    """Exact ``A @ X mod q`` by float64 matrix products, any ``q < 2**56``.

    Bound to a size — the largest modulus, the contraction width K and the
    modulus the operands are residues of — it derives, once, how to cut
    both sides into words float64 can multiply and add exactly:

    * an operand (reduced, or centered: the words carry the sign) is cut
      into ``pieces`` words of ``bits`` bits, the top word keeping the
      sign, and the shifts are absorbed into the table,
      ``[A | A * 2**bits | ...] mod q``, so one product over the
      concatenated words is the product with the whole operand;
    * every absorbed table entry (``< q``) is cut into ``table_pieces``
      words of ``table_bits`` bits, one array and one ``np.matmul``
      each.

    The plan (:func:`matmul_split_plan`) satisfies ``pieces * K *
    (2**bits - 1) * (2**table_bits - 1) < 2**53`` (a single table word
    is bounded by ``q_max - 1`` instead): every partial sum ``R_t`` is
    then an integer below 2**53 in magnitude, exact in float64 in
    whatever order BLAS adds.  Moduli below 2**31 get one table word (2 x
    16 operand bits at K = 32, 3 x 11 at K = 64); a 54-bit word at K = 32
    or 64 gets 3 x 18 operand bits against 2 x 27 table bits, 6 partial
    products; ``ValueError`` when 8 x 8 words do not suffice.

    Recombination.  With one table word the product is ``R_0 % q``.
    Otherwise ``y = sum_t R_t * 2**(t * table_bits)`` does not fit 64
    bits, and does not need to: the table words of an entry sum to less
    than q, so ``|y| / q < pieces * K * 2**bits`` — about
    ``2**(53 - table_bits)`` by the bound above; a float64 Horner sum of
    the ``R_t`` times a float64 ``1 / q`` makes ``table_pieces + 1``
    roundings of relative size ``2**-53``, an error of order
    ``(table_pieces + 1) * 2**-table_bits`` in the quotient (asserted
    below 1/4 when the plan is built), so rounded to the nearest integer
    ``k`` it is within 3/4 of ``y / q`` for *any* row modulus, narrow
    rows beside wide ones included; and ``r = (y mod 2**64) - k * q`` in
    wrap-around int64 is the true ``y - k * q`` in ``(-q, q)``, which one
    conditional ``+ q`` brings into ``[0, q)``.

    The tables live with the caller (an NTT context slices them per limb
    row, a key-switch context keeps one per digit): :meth:`table` builds
    one, :meth:`left` / :meth:`right` multiply by it.
    """

    def __init__(self, q_max: int, width: int,
                 operand_modulus: int | None = None):
        self.width = width
        self.pieces, self.bits, self.table_pieces, self.table_bits = \
            matmul_split_plan(q_max, width, operand_modulus or q_max)
        #: The least operand magnitude whose top word can leave
        #: ``±(2**bits - 1)``, the word range the plan was derived for:
        #: any int64 operand with ``|x| < reach``, reduced or not, is
        #: multiplied exactly (its words recombine to ``x``, and the
        #: table is taken mod q).
        top = (self.pieces - 1) * self.bits
        self.reach = (((1 << self.bits) - 1) << top) + 1
        if q_max >= NATIVE_SAFE_MODULUS or ((self.table_pieces + 3)
                                            * self.pieces * width
                                            << self.bits) >= 1 << 51:
            raise ValueError(f"quotient estimate of a {width}-term product "
                             f"mod {q_max} is not within 1/4")

    def table(self, matrix: np.ndarray, moduli, axis: int) -> tuple:
        """The float64 table of an int64 ``matrix`` of residues, row i of
        its first axis modulo ``moduli[i]``: the absorbed copies
        ``matrix * 2**(p * bits) mod q`` concatenated along ``axis`` (the
        contraction axis, -1 for :meth:`left`, -2 for :meth:`right`), cut
        into ``table_pieces`` arrays, one per table word."""
        shape = (len(moduli),) + (1,) * (matrix.ndim - 1)
        absorbed = np.concatenate(
            [matrix] + [mulmod_stack(
                matrix, np.array([(1 << (p * self.bits)) % q for q in moduli],
                                 dtype=np.int64).reshape(shape), moduli)
                for p in range(1, self.pieces)], axis=axis)
        mask = (1 << self.table_bits) - 1
        words = [(absorbed >> (t * self.table_bits)) & mask
                 for t in range(self.table_pieces - 1)]
        words.append(absorbed >> ((self.table_pieces - 1) * self.table_bits))
        # C order whatever layout the caller's gathers left behind: BLAS
        # reads these on every call.
        return tuple(np.ascontiguousarray(word, dtype=np.float64)
                     for word in words)

    def words(self, x: np.ndarray, axis: int) -> np.ndarray:
        """The float64 words of int64 operands, word p + 1 stacked after
        word p along ``axis``."""
        pieces, bits = self.pieces, self.bits
        shape = list(x.shape)
        shape.insert(axis, pieces)
        words = np.empty(shape)
        mask = (1 << bits) - 1
        for p in range(pieces):
            word = x >> (p * bits) if p else x
            words[(slice(None),) * axis + (p,)] = \
                word & mask if p < pieces - 1 else word
        shape[axis:axis + 2] = [pieces * x.shape[axis]]
        return words.reshape(shape)

    def left(self, table, x, q_col, q_inv_col=None) -> np.ndarray:
        """``A @ x mod q`` for a :meth:`table` of ``A`` built along axis
        -1.  ``q_col`` is the int64 ``(rows, 1)`` column of moduli, one
        per index of the product's first axis; ``q_inv_col`` its float64
        reciprocals (unused with one table word)."""
        return self._multiply(table, self.words(x, x.ndim - 2), True,
                              q_col, q_inv_col)

    def right(self, x, table, q_col, q_inv_col=None) -> np.ndarray:
        """``x @ A mod q`` for a :meth:`table` of ``A`` built along axis
        -2."""
        return self._multiply(table, self.words(x, x.ndim - 1), False,
                              q_col, q_inv_col)

    def _multiply(self, table, words, table_first: bool, q, q_inv):
        """One matmul per table word, recombined mod q.

        The reductions sweep one row per modulus, so a column broadcasts
        along whole rows instead of along the product's last axis.
        """
        parts = [np.matmul(word, words) if table_first
                 else np.matmul(words, word) for word in table]
        rows = len(q)
        # Every R_t is an integer below 2**53: the casts are exact.
        if len(parts) == 1:
            out = parts.pop().astype(np.int64)
            flat = out.reshape(rows, -1)
            flat %= q
            return out
        del words       # spent; see _recombine
        shape = parts[0].shape
        parts = [part.reshape(rows, -1) for part in parts]
        return self._recombine(parts, q, q_inv).reshape(shape)

    def _recombine(self, parts: list, q, q_inv) -> np.ndarray:
        """``sum_t R_t * 2**(t * table_bits) mod q`` through the quotient
        estimate; consumes ``parts``, letting each go as soon as it is
        spent — past a dozen limbs every intermediate is beyond malloc's
        mmap threshold, where holding one longer than needed is paid in
        page faults."""
        estimate = parts.pop()
        y = estimate.astype(np.int64)
        scale = float(1 << self.table_bits)
        while parts:
            # Horner, in wrap-around int64 and in float64 side by side.
            part = parts.pop()
            y <<= self.table_bits
            y += part.astype(np.int64)
            estimate *= scale
            estimate += part
        estimate *= q_inv
        # |y / q - estimate| < 1/4, so rounding it leaves |r| < q.
        y -= np.rint(estimate, out=estimate).astype(np.int64) * q
        u = y.view(np.uint64)
        # A negative r reads as r + 2**64: adding q wraps it into [0, q),
        # below itself; a non-negative one only grows.
        return np.minimum(u, u + q.view(np.uint64)).view(np.int64)


@functools.lru_cache(maxsize=256)
def rescale_constants(moduli: tuple[int, ...]) -> BoundScalarMul:
    """The bound ``q_last^{-1} mod q_i`` scaling for dropping ``moduli[-1]``.

    ``.scalars[i]`` is the inverse for each remaining limb (what the
    per-limb reference backend reads); calling the result scales a whole
    ``(L - 1, N)`` stack.  Cached per modulus chain so the
    ``pow(q_last, -1, q)`` inversions and the columns are paid once per
    level.
    """
    q_last = int(moduli[-1])
    rest = [int(q) for q in moduli[:-1]]
    return BoundScalarMul([invmod(q_last % q, q) for q in rest], rest)


def scalar_add_stack(a: np.ndarray, scalars: list[int], moduli) -> np.ndarray:
    """Add ``scalars[i] mod q_i`` to every residue of limb i."""
    if len(scalars) != len(moduli):
        raise ValueError("need one scalar per limb")
    reduced = [int(s) % int(q) for s, q in zip(scalars, moduli)]
    use64 = _stack_native_ok(moduli, a)
    col = np.array(reduced, dtype=np.int64 if use64 else object)
    col = col.reshape((len(moduli),) + (1,) * (a.ndim - 1))
    return addmod_stack(a, np.broadcast_to(col, a.shape), moduli)


def random_residues(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform residues in ``[0, q)`` with the dtype of the fast path.

    The draw pattern depends only on the word size, never on the dispatch
    mode: small moduli use one machine draw, wide moduli keep the hi/lo
    32-bit draw of the original object-dtype path.  The RNG stream is
    therefore identical to the seed implementation at any word size (and
    under :func:`force_object_dtype`), so same-seed ciphertexts are
    bit-identical across dispatch regimes; only the storage dtype follows
    :func:`limb_dtype`.  The hi/lo word is composed and reduced in
    uint64 below 2**56 and in Python integers only beyond.
    """
    if q < INT64_SAFE_MODULUS:
        vals = rng.integers(0, q, size=n, dtype=np.int64)
    else:
        lo = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
        hi = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
        if q < NATIVE_SAFE_MODULUS:
            vals = (((hi << np.uint64(32)) | lo)
                    % np.uint64(q)).view(np.int64)
        else:
            vals = ((hi.astype(object) << 32) | lo.astype(object)) % q
    dtype = limb_dtype(q)
    return vals if vals.dtype == dtype else vals.astype(dtype)
