"""Modular arithmetic primitives for RNS-CKKS.

All FHE building blocks in the paper reduce to 64-bit-wide scalar modular
additions and multiplications (paper section 2.2).  This module provides:

* scalar Barrett reduction (classic and the "modified Barrett" variant of
  Shivdikar et al. [76] that uses a single conditional subtraction),
* Montgomery multiplication: the scalar :class:`MontgomeryContext` (a test
  oracle and the ISA model's sizing reference) and its vectorized
  counterpart (:func:`mont_precompute_vec`, :func:`mont_mulmod_vec`,
  :func:`to_mont_vec` / :func:`from_mont_vec` plus the ``*_stack``
  variants) used by the EVAL-form fast path: limbs that stay in
  Montgomery domain across chains of pointwise products pay one REDC per
  product instead of a full 128-bit Barrett reduction (HEAAN
  Demystified's amortized-reduction observation).  The radix is a
  property of the modulus (:func:`mont_radix`): ``R = 2**64`` from 2**31
  up, ``R = 1`` below, where a product is one multiply and one ``%``
  already and Montgomery form is the identity,
* vectorized numpy backends.  Products of two word-size residues overflow
  64-bit integers for the paper's 54-bit primes, so there are three paths:

  - ``int64`` fast path: a single machine multiply, exact whenever
    ``q < 2**31`` (products < 2**62); used by the toy/test presets;
  - double-word native path: exact for any ``q < 2**61`` (in particular
    the paper's 54-bit word).  Products are carried as a pair of uint64
    words via 32-bit splits and reduced with a 128-bit Barrett sequence
    (the same algorithm a MOD-unit implements in hardware), or with the
    Shoup precomputed-quotient multiply when one operand is a known
    constant (NTT twiddles, scalar tables);
  - object-dtype fallback: numpy arrays of Python ints, exact for any
    word size; only moduli of 61+ bits take this path now.

The generic kernels (``*_vec`` per limb, ``*_stack`` across a limb stack)
choose the path automatically per call; see :func:`mulmod_vec`.  The hot
paths do not pay that choice per call: a ``BatchedNttContext`` binds its
tier, modulus columns and tables when it is built and runs that tier's
kernel directly (one exact float64 matrix product per factor of N on
both native tiers, :class:`BoundModMatmul`, with int64 twiddle scales
below 2**31 and Shoup ones up to 2**61), both base conversions of a key
switch are the same bound matmul on both native tiers (one table word
and a plain ``%`` below 2**31), and the per-level constant multiplies of
the key-switch datapath are :class:`BoundScalarMul` objects held by the
``KeySwitchContext`` (see "The three dtype paths" in
``backend/README.md``).  Conditional subtractions on the double-word
tier are branch-free: ``np.minimum(r, r - q)`` in uint64, where
``r - q`` wraps past ``r`` exactly when ``r < q``.  For benchmarking (and for pitting the native
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
#: path (32-bit-split products + 128-bit Barrett / Shoup reduction).  The
#: 61-bit ceiling keeps the Barrett remainder estimate within one
#: conditional subtraction and lets reduced sums stay inside int64.
NATIVE_SAFE_MODULUS = 1 << 61

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
    ``dword`` means the double-word Barrett/Shoup path applies
    (q < 2**61); ``object`` is the arbitrary-precision fallback.
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


# -- double-word (uint64-pair) primitives ------------------------------------
#
# numpy has no 128-bit integer, so products of two residues beyond 2**31 are
# carried as (hi, lo) uint64 pairs built from 32-bit splits -- the exact
# digit decomposition a GPU's 32-bit integer datapath performs (paper
# section 2.2 / Table 4).  All arithmetic below relies on uint64 wrap-around
# being well-defined in numpy.

_U32_MASK = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_WORD64_MASK = (1 << 64) - 1


def _as_u64(a: np.ndarray) -> np.ndarray:
    """Reinterpret non-negative int64 storage as uint64 (no copy)."""
    if isinstance(a, np.ndarray) and a.dtype == np.int64:
        return a.view(np.uint64)
    return np.asarray(a).astype(np.uint64)


def _mul64(a, b):
    """Full 64x64 -> 128-bit product as a ``(hi, lo)`` uint64 pair."""
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


def _mulhi64(a, b):
    """High 64 bits of the 64x64-bit product (the MULHI instruction)."""
    a0 = a & _U32_MASK
    a1 = a >> _SHIFT32
    b0 = b & _U32_MASK
    b1 = b >> _SHIFT32
    mid1 = a1 * b0 + ((a0 * b0) >> _SHIFT32)
    mid2 = a0 * b1 + (mid1 & _U32_MASK)
    return a1 * b1 + (mid1 >> _SHIFT32) + (mid2 >> _SHIFT32)


@functools.lru_cache(maxsize=None)
def _barrett128(q: int) -> tuple[np.uint64, np.uint64, np.uint64]:
    """``(q, ratio_lo, ratio_hi)`` with ``ratio = floor(2**128 / q)``.

    The two ratio words drive the 128-bit Barrett reduction of
    :func:`_barrett_reduce_dword`; they are what a MOD-unit's constant
    registers would hold for this modulus.
    """
    ratio = (1 << 128) // q
    return (np.uint64(q), np.uint64(ratio & _WORD64_MASK),
            np.uint64(ratio >> 64))


def _barrett_reduce_dword(hi, lo, q_u, ratio_lo, ratio_hi):
    """Barrett-reduce a 128-bit value ``hi:lo`` modulo ``q`` (uint64 out).

    Estimates ``t ~ floor(x * ratio / 2**128)`` keeping only the carries
    of the low cross products; for ``x < q**2`` and ``q < 2**61`` the
    estimate is off by at most one multiple of ``q``, so a single
    conditional subtraction finishes the reduction (the modified Barrett
    sequence of [76] widened to a double word).
    """
    carry = _mulhi64(lo, ratio_lo)
    t_hi, t_lo = _mul64(lo, ratio_hi)
    tmp = t_lo + carry
    round1 = t_hi + (tmp < t_lo)
    t_hi, t_lo = _mul64(hi, ratio_lo)
    tmp2 = tmp + t_lo
    carry = t_hi + (tmp2 < t_lo)
    quot = hi * ratio_hi + round1 + carry
    r = lo - quot * q_u
    # r < 2q < 2**62, so r - q wraps past r exactly when r < q.
    return np.minimum(r, r - q_u)


@functools.lru_cache(maxsize=4096)
def _shoup_scalar(w: int, q: int) -> tuple[np.uint64, np.uint64, np.uint64]:
    """Cached ``(w, shoup(w), q)`` uint64 triple for a scalar constant.

    The per-level constants of the per-limb paths (rescale inverses,
    ``P^{-1}``, CRT inverses) are fixed, so the Python-bigint quotient
    ``(w << 64) // q`` is paid once per (constant, modulus) pair,
    mirroring :func:`_barrett128`.  Bounded: ``scalar_mul`` feeds this
    request-supplied scalars, and a miss only costs that one quotient.
    """
    return np.uint64(w), np.uint64((w << 64) // q), np.uint64(q)


def _mulmod_dword(a: np.ndarray, b, q: int) -> np.ndarray:
    """Exact vector mulmod for ``q < 2**61`` via the double-word path.

    Operands must be reduced residues in ``[0, q)``.  Returns int64 (the
    native storage dtype).  ``b`` may be an array or an integer scalar;
    scalars take the cheaper Shoup multiply with a cached precomputed
    quotient.
    """
    au = _as_u64(a)
    if isinstance(b, (int, np.integer)):
        w, w_shoup, q_u = _shoup_scalar(int(b) % q, q)
        return _shoup_mulmod_u64(au, w, w_shoup, q_u).view(np.int64)
    q_u, ratio_lo, ratio_hi = _barrett128(q)
    hi, lo = _mul64(au, _as_u64(b))
    return _barrett_reduce_dword(hi, lo, q_u, ratio_lo, ratio_hi).view(
        np.int64)


def shoup_precompute(w: int, q: int) -> int:
    """Shoup quotient ``floor(w * 2**64 / q)`` for a constant ``w < q``."""
    if not 0 <= w < q:
        raise ValueError(f"Shoup constant must be reduced: {w} mod {q}")
    return (w << 64) // q


def shoup_precompute_vec(values, q: int) -> np.ndarray:
    """Shoup quotients for a table of reduced constants (uint64)."""
    return np.array([(int(w) << 64) // q for w in values], dtype=np.uint64)


def _shoup_mulmod_u64(a, w, w_shoup, q_u):
    """``a * w mod q`` with the precomputed quotient (all uint64).

    One MULHI + two low multiplies + one conditional subtraction — the
    constant-multiply sequence the paper's NTT kernels use for twiddles.
    Exact for ``a < q``, ``w < q``, ``q < 2**63``.
    """
    qhat = _mulhi64(w_shoup, a)
    r = w * a - qhat * q_u
    # r < 2q < 2**62, so r - q wraps past r exactly when r < q.
    return np.minimum(r, r - q_u)


def shoup_mulmod_vec(a: np.ndarray, w: int, w_shoup: int,
                     q: int) -> np.ndarray:
    """Vector Shoup multiply by a constant; int64 in, int64 out.

    ``w_shoup`` must come from :func:`shoup_precompute`.  Used by tests as
    the public face of the Shoup path; the NTT contexts call the uint64
    kernel directly on their precomputed tables.
    """
    out = _shoup_mulmod_u64(_as_u64(a), np.uint64(w), np.uint64(w_shoup),
                            np.uint64(q))
    return out.view(np.int64) if out.dtype == np.uint64 else out


def _addmod_u64(a, b, q_u):
    """uint64 modular addition of reduced operands (broadcastable q)."""
    s = a + b
    # s < 2q < 2**62, so s - q wraps past s exactly when s < q.
    return np.minimum(s, s - q_u)


def _submod_u64(a, b, q_u):
    """uint64 modular subtraction of reduced operands (broadcastable q)."""
    d = a - b
    # a, b < q < 2**61: d wraps above 2**63 exactly when a < b, and d + q
    # then wraps back into [0, q); otherwise d < q <= d + q.
    return np.minimum(d, d + q_u)


# -- Montgomery-domain vector kernels -----------------------------------------
#
# The EVAL-form fast path: limbs mapped into Montgomery form (a*R mod q)
# stay there across chains of pointwise products, paying one REDC per
# product (one full multiply + one low multiply + one MULHI) instead of
# the full 128-bit Barrett sequence.  R = 2**64 makes the "mod R" and
# "div R" of REDC free on a 64-bit datapath: they are exactly the uint64
# wrap-around and the high product word.
#
# R is a property of the modulus, not of the dispatch tier: 2**64 from
# 2**31 up, 1 below.  Under 2**31 a plain product is already one machine
# multiply and one ``%``, which REDC cannot beat and an R of 2**64 could
# only follow with a second ``%`` (by R**-1 mod q), so there Montgomery
# form is the identity and ``mont_mul`` is ``mulmod``.  Round trips and
# products are exact, so results are bit-identical with the Barrett path
# in every dispatch tier (the object tier, and stacks mixing both classes
# of modulus, run the same algebra through the generic mulmod kernels
# with each row's own R).


def mont_radix(q: int) -> int:
    """The Montgomery radix of residues mod ``q``: ``2**64`` for
    ``q >= 2**31``, else 1 (Montgomery form is then the identity)."""
    return 1 if q < INT64_SAFE_MODULUS else 1 << 64


@functools.lru_cache(maxsize=None)
def mont_precompute_vec(q: int) -> tuple[int, int, int, int]:
    """REDC constants for ``R = mont_radix(q)``:
    ``(qprime, r_mod_q, r_shoup, r_inv)``.

    ``qprime = -q^{-1} mod R`` drives the REDC low-word multiply,
    ``r_mod_q = R mod q`` (with its Shoup quotient ``r_shoup``) is the
    to-Montgomery constant, and ``r_inv = R^{-1} mod q`` is the
    from-Montgomery constant used by the generic tiers; below 2**31 they
    are ``(0, 1, 2**64 // q, 1)``.  Cached per modulus, mirroring
    :func:`_barrett128`; requires an odd modulus (all NTT primes are
    odd).
    """
    if q % 2 == 0:
        raise ValueError("Montgomery form requires an odd modulus")
    if q <= 1:
        raise ValueError(f"modulus must be > 1, got {q}")
    r = mont_radix(q)
    qprime = (-pow(q, -1, r)) % r
    r_mod_q = r % q
    return qprime, r_mod_q, (r_mod_q << 64) // q, invmod(r_mod_q, q)


def _mont_mulmod_u64(a, b, q_u, qprime_u):
    """REDC product of uint64 Montgomery operands (broadcastable q).

    ``t = a*b``; ``m = t_lo * q' mod 2**64``; ``u = (t + m*q) / 2**64``
    computed as ``t_hi + mulhi(m, q) + carry`` where the carry of the low
    half ``t_lo + m*q_lo`` is 1 exactly when ``t_lo != 0`` (the low half
    sums to 0 mod 2**64 by construction).  ``u < 2q`` for ``q < 2**61``,
    so one conditional subtraction finishes.
    """
    hi, lo = _mul64(a, b)
    m = lo * qprime_u
    u = hi + _mulhi64(m, q_u) + (lo != np.uint64(0))
    # u < 2q < 2**62, so u - q wraps past u exactly when u < q.
    return np.minimum(u, u - q_u)


def mont_mulmod_vec(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Vector REDC multiply: ``a * b * R**-1 mod q`` for reduced operands.

    With both operands in Montgomery form the result stays in Montgomery
    form; with exactly one operand in Montgomery form the result is a
    plain residue (the one-conversion trick used for cached constants
    such as switching keys and encoded diagonals).  Dispatch mirrors
    :func:`mulmod_vec`: the uint64 REDC kernel on the double-word tier,
    the exact generic formulation (multiply, then multiply by
    ``R**-1 mod q`` unless that is 1) on the int64/object tiers —
    bit-identical either way.
    """
    qprime, _, _, r_inv = mont_precompute_vec(q)
    if native_class(q) == "dword" and a.dtype != object and b.dtype != object:
        out = _mont_mulmod_u64(_as_u64(a), _as_u64(b), np.uint64(q),
                               np.uint64(qprime))
        return out.view(np.int64)
    product = mulmod_vec(a, b, q)
    return product if r_inv == 1 else mulmod_vec(product, r_inv, q)


def to_mont_vec(a: np.ndarray, q: int) -> np.ndarray:
    """Map reduced residues into Montgomery form: ``a * R mod q``.

    A Shoup constant multiply by the cached ``2**64 mod q`` on the
    double-word tier; ``a`` itself where ``R = 1``; generic mulmod
    elsewhere.
    """
    _, r_mod_q, r_shoup, _ = mont_precompute_vec(q)
    if native_class(q) == "dword" and a.dtype != object:
        return _shoup_mulmod_u64(_as_u64(a), np.uint64(r_mod_q),
                                 np.uint64(r_shoup),
                                 np.uint64(q)).view(np.int64)
    return a if r_mod_q == 1 else mulmod_vec(a, r_mod_q, q)


def from_mont_vec(a: np.ndarray, q: int) -> np.ndarray:
    """Map out of Montgomery form: ``a * R**-1 mod q``.

    On the double-word tier this is a bare REDC of the single word ``a``
    (t_hi = 0), cheaper than a full multiply; ``a`` itself where
    ``R = 1``; elsewhere a generic mulmod by the cached ``R**-1 mod q``.
    """
    qprime, _, _, r_inv = mont_precompute_vec(q)
    if native_class(q) == "dword" and a.dtype != object:
        au = _as_u64(a)
        m = au * np.uint64(qprime)
        q_u = np.uint64(q)
        u = _mulhi64(m, q_u) + (au != np.uint64(0))
        # u <= q < 2**61, so u - q wraps past u exactly when u < q.
        return np.minimum(u, u - q_u).view(np.int64)
    return a if r_inv == 1 else mulmod_vec(a, r_inv, q)


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
    overflow (``q < 2**31``), the double-word Barrett/Shoup path for
    ``q < 2**61`` (the paper's 54-bit primes), and the object-dtype
    arbitrary-precision path beyond that.  Like the other vector kernels,
    array operands must already be residues in ``[0, q)`` — the
    double-word path reinterprets int64 storage as uint64, so signed or
    oversized inputs must go through :func:`reduce_vec` first (integer
    scalars ``b`` are reduced internally).
    """
    b_is_scalar = isinstance(b, (int, np.integer))
    if a.dtype != object and (b_is_scalar or b.dtype != object):
        if _is_int64_safe(q):
            prod = a.astype(np.int64) * (b if b_is_scalar
                                         else b.astype(np.int64))
            return prod % q
        if _is_native(q):
            return _mulmod_dword(a, b, q)
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
# *every* modulus in the stack is below 2**61 (with the double-word multiply
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
    """True when the whole stack stores int64 (every modulus < 2**61)."""
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


@functools.lru_cache(maxsize=None)
def _barrett_columns(moduli: tuple[int, ...],
                     ndim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ``(q, ratio_lo, ratio_hi)`` uint64 columns for a basis."""
    shape = (len(moduli),) + (1,) * (ndim - 1)
    q_u = np.array(list(moduli), dtype=np.uint64).reshape(shape)
    ratios = [(1 << 128) // q for q in moduli]
    lo = np.array([r & _WORD64_MASK for r in ratios],
                  dtype=np.uint64).reshape(shape)
    hi = np.array([r >> 64 for r in ratios], dtype=np.uint64).reshape(shape)
    return q_u, lo, hi


def _stack_native_ok(moduli, *arrays) -> bool:
    return stack_is_native(moduli) and all(
        isinstance(a, (int, np.integer)) or a.dtype != object
        for a in arrays)


def stack_residues(limbs: list[np.ndarray],
                   moduli: tuple[int, ...] | list[int]) -> np.ndarray:
    """Stack per-limb residue vectors into one ``(limbs, N)`` array.

    Uses int64 when every modulus is below 2**61 (the paper's 54-bit word
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
    path below 2**31, the double-word Barrett sweep below 2**61, and the
    object-dtype path beyond.  As with :func:`mulmod_vec`, operands must
    be residues in ``[0, q_i)`` — the double-word sweep reinterprets
    int64 rows as uint64 (use :func:`reduce_stack` for signed values).
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
            # Reduce integer scalars per modulus (as mulmod_vec does) —
            # the uint64 reinterpretation below is only exact for
            # residues in [0, q_i).
            b = np.array([int(b) % int(q) for q in moduli],
                         dtype=np.int64).reshape(
                             (len(moduli),) + (1,) * (a.ndim - 1))
        q_u, ratio_lo, ratio_hi = _barrett_columns(tuple(moduli), a.ndim)
        hi, lo = _mul64(_as_u64(a), _as_u64(b))
        return _barrett_reduce_dword(hi, lo, q_u, ratio_lo,
                                     ratio_hi).view(np.int64)
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
    basis, and the ready ``(L, 1)`` columns — including, on the
    double-word tier, the Shoup quotients, which swap the Barrett sweep
    for one MULHI + two low multiplies.  A call is then a straight line
    of ufuncs, bit-identical to :func:`scalar_mul_stack` in every tier.

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
        shape = (len(self.moduli), 1)
        self.q_col = np.array(self.moduli, dtype=np.int64).reshape(shape)
        self.col = np.array(self.scalars, dtype=np.int64).reshape(shape)
        if self.klass == "dword":
            self.shoup_col = np.array(
                [shoup_precompute(w, q)
                 for w, q in zip(self.scalars, self.moduli)],
                dtype=np.uint64).reshape(shape)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """Limb i of the 2-D stack ``a`` times ``scalars[i] mod q_i``."""
        if _OBJECT_ONLY or self.klass == "object" or a.dtype == object:
            return scalar_mul_stack(a, self.scalars, self.moduli)
        if self.klass == "int64":
            out = a * self.col
            out %= self.q_col
            return out
        return _shoup_mulmod_u64(_as_u64(a), self.col.view(np.uint64),
                                 self.shoup_col,
                                 self.q_col.view(np.uint64)).view(np.int64)

    def sub_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Limb i of ``a - b`` times ``scalars[i] mod q_i`` (reduced
        operands): the subtract-and-scale tail of rescale and ModDown."""
        if (_OBJECT_ONLY or self.klass == "object" or a.dtype == object
                or b.dtype == object):
            return scalar_mul_stack(submod_stack(a, b, self.moduli),
                                    self.scalars, self.moduli)
        if self.klass == "int64":
            # |a - b| < q < 2**31, so the signed product fits and the
            # floor remainder lands in [0, q) without a sign fix-up.
            out = a - b
            out *= self.col
            out %= self.q_col
            return out
        q_u = self.q_col.view(np.uint64)
        return _shoup_mulmod_u64(_submod_u64(_as_u64(a), _as_u64(b), q_u),
                                 self.col.view(np.uint64), self.shoup_col,
                                 q_u).view(np.int64)


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
    """Exact ``A @ X mod q`` by float64 matrix products, any ``q < 2**61``.

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


@functools.lru_cache(maxsize=None)
def _mont_columns(moduli: tuple[int, ...], ndim: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ``(q, qprime, r_mod_q, r_shoup)`` uint64 columns for a basis.

    The stacked REDC constants, mirroring :func:`_barrett_columns`: one
    cached column set per (basis, broadcast rank), shared by
    :func:`mont_mulmod_stack` / :func:`to_mont_stack` /
    :func:`from_mont_stack`.
    """
    shape = (len(moduli),) + (1,) * (ndim - 1)
    consts = [mont_precompute_vec(int(q)) for q in moduli]
    q_u = np.array(list(moduli), dtype=np.uint64).reshape(shape)
    qprime = np.array([c[0] for c in consts],
                      dtype=np.uint64).reshape(shape)
    r_mod_q = np.array([c[1] for c in consts],
                       dtype=np.uint64).reshape(shape)
    r_shoup = np.array([c[2] for c in consts],
                       dtype=np.uint64).reshape(shape)
    return q_u, qprime, r_mod_q, r_shoup


@functools.lru_cache(maxsize=None)
def _mont_scalars(moduli: tuple[int, ...]
                  ) -> tuple[list[int], list[int]] | None:
    """Per-row ``(R mod q, R**-1 mod q)`` scalars of a basis for the
    generic kernels; ``None`` when every row has ``R = 1``."""
    if all(mont_radix(int(q)) == 1 for q in moduli):
        return None
    consts = [mont_precompute_vec(int(q)) for q in moduli]
    return [c[1] for c in consts], [c[3] for c in consts]


def _mont_scale(a: np.ndarray, moduli, inverse: bool) -> np.ndarray:
    """Row i of ``a`` times ``R_i mod q_i`` (``R_i**-1`` with
    ``inverse``); ``a`` itself on an all-``R = 1`` basis."""
    scalars = _mont_scalars(tuple(moduli))
    return a if scalars is None else scalar_mul_stack(a, scalars[inverse],
                                                      moduli)


def _redc_ok(moduli, *arrays) -> bool:
    """True when the uint64 REDC / Shoup sweeps apply: the double-word
    tier with ``R = 2**64`` on every row.  A stack mixing in rows below
    2**31 takes the generic kernels, each row with its own ``R``."""
    return (stack_native_class(moduli) == "dword"
            and min(moduli) >= INT64_SAFE_MODULUS
            and _stack_native_ok(moduli, *arrays))


def mont_mulmod_stack(a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
    """Stacked REDC multiply: row i is ``a_i * b_i * R_i**-1 mod q_i``.

    The stacked counterpart of :func:`mont_mulmod_vec`: one uint64 REDC
    sweep across the whole limb stack on the double-word tier, the exact
    generic formulation (full product, then multiply by ``R**-1 mod q``)
    elsewhere — on an all-``R = 1`` basis just :func:`mulmod_stack`,
    one ``%`` per product.  Bit-identical either way.
    """
    if _redc_ok(moduli, a, b):
        q_u, qprime, _, _ = _mont_columns(tuple(moduli), a.ndim)
        out = _mont_mulmod_u64(_as_u64(a), _as_u64(b), q_u, qprime)
        return out.view(np.int64)
    return _mont_scale(mulmod_stack(a, b, moduli), moduli, inverse=True)


def to_mont_stack(a: np.ndarray, moduli) -> np.ndarray:
    """Map a reduced limb stack into Montgomery form: row i times
    ``R_i mod q_i`` (a Shoup sweep on the double-word tier, ``a`` itself
    on an all-``R = 1`` basis)."""
    if _redc_ok(moduli, a):
        q_u, _, r_mod_q, r_shoup = _mont_columns(tuple(moduli), a.ndim)
        return _shoup_mulmod_u64(_as_u64(a), r_mod_q, r_shoup,
                                 q_u).view(np.int64)
    return _mont_scale(a, moduli, inverse=False)


def from_mont_stack(a: np.ndarray, moduli) -> np.ndarray:
    """Map a limb stack out of Montgomery form: row i times
    ``R_i**-1 mod q_i`` (a bare single-word REDC on the double-word tier,
    ``a`` itself on an all-``R = 1`` basis)."""
    if _redc_ok(moduli, a):
        q_u, qprime, _, _ = _mont_columns(tuple(moduli), a.ndim)
        au = _as_u64(a)
        m = au * qprime
        u = _mulhi64(m, q_u) + (au != np.uint64(0))
        # u <= q < 2**61, so u - q wraps past u exactly when u < q.
        return np.minimum(u, u - q_u).view(np.int64)
    return _mont_scale(a, moduli, inverse=True)


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
    uint64 below 2**61 and in Python integers only beyond.
    """
    if q < INT64_SAFE_MODULUS:
        vals = rng.integers(0, q, size=n, dtype=np.int64)
    else:
        lo = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
        hi = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
        if q < NATIVE_SAFE_MODULUS:
            vals = (((hi << _SHIFT32) | lo) % np.uint64(q)).view(np.int64)
        else:
            vals = ((hi.astype(object) << 32) | lo.astype(object)) % q
    dtype = limb_dtype(q)
    return vals if vals.dtype == dtype else vals.astype(dtype)
