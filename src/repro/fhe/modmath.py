"""Modular arithmetic primitives for RNS-CKKS.

All FHE building blocks in the paper reduce to 64-bit-wide scalar modular
additions and multiplications (paper section 2.2).  This module provides:

* scalar Barrett reduction (classic and the "modified Barrett" variant of
  Shivdikar et al. [76] that uses a single conditional subtraction) and
  scalar Montgomery multiplication (:class:`MontgomeryContext`): the
  test oracles and the ISA model's sizing references for what a MOD-unit
  computes,
* vectorized numpy backends.  Every residue is int64, and products of two
  word-size residues overflow 64-bit integers for the paper's 54-bit
  primes, so there are two paths, one per tier of modulus
  (:func:`native_class`):

  - ``int64``: a single machine multiply, exact whenever ``q < 2**31``
    (products < 2**62); used by the toy/test presets;
  - ``dword``: exact for any ``q < 2**56`` (the paper's 54-bit word and
    its 55-bit ``q_0`` / special primes).  A product is one wrapping
    int64 multiply, corrected by two float64 quotient estimates
    (:func:`_mulmod_f64`) — arrays, constants and NTT twiddles alike,
    with no 32-bit splits and no 128-bit emulation.

  A modulus of 2**56 or more has no kernel: every one of them, and
  :class:`~repro.fhe.params.CkksParameters`, refuses it with a
  ``ValueError`` naming it.

The generic kernels (``*_vec`` per limb, ``*_stack`` across a limb stack)
take int64 residues and return int64 residues; the only choice they make
per call is the multiply's tier (:func:`mulmod_vec`,
:func:`mulmod_stack`).  The hot paths do not pay even that: a
``BatchedNttContext`` binds its tier, modulus columns and tables when it
is built and runs that tier's kernel directly (one exact float64 matrix
product per factor of N, :class:`BoundModMatmul`, with int64 twiddle
scales below 2**31 and :func:`_mulmod_f64` ones up to 2**56), both base
conversions of a key switch are the same bound matmul (one table word
and a plain ``%`` below 2**31), and the per-level constant multiplies of
the key-switch datapath are :class:`BoundScalarMul` objects held by the
``KeySwitchContext`` (see "The two dtype paths" in
``backend/README.md``).
"""

from __future__ import annotations

import functools

import numpy as np

#: Moduli strictly below this bound can use the exact int64 vector path
#: (one machine multiply per product).
INT64_SAFE_MODULUS = 1 << 31

#: Moduli strictly below this bound can use the exact double-word native
#: path (one int64 product and two float64 quotient estimates,
#: :func:`_mulmod_f64`); no modulus at or past it is taken.  The 56-bit
#: ceiling keeps the first estimate within 41 of the true quotient, so
#: the remainder it leaves stays inside int64 (``41 q < 2**62``).
NATIVE_SAFE_MODULUS = 1 << 56


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


def native_class(q: int) -> str:
    """Kernel class for one modulus: ``"int64"`` or ``"dword"``.

    ``int64`` means a single machine multiply is exact (q < 2**31);
    ``dword`` means one int64 product and two float64 quotient estimates
    are (q < 2**56, :func:`_mulmod_f64`).  Any wider modulus is refused:
    ``ValueError`` naming it, never a fallback.
    """
    if q < INT64_SAFE_MODULUS:
        return "int64"
    if q < NATIVE_SAFE_MODULUS:
        return "dword"
    raise ValueError(f"modulus {q} is 2**56 or more: residues are int64 "
                     f"and their products exact only below 2**56")


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
    native_class(q)
    s = a.astype(np.int64) + b.astype(np.int64)
    return np.where(s >= q, s - q, s)


def submod_vec(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Vector modular subtraction of reduced operands."""
    native_class(q)
    d = a.astype(np.int64) - b.astype(np.int64)
    return np.where(d < 0, d + q, d)


def mulmod_vec(a: np.ndarray, b: np.ndarray | int, q: int) -> np.ndarray:
    """Vector modular multiplication of **reduced** operands.

    Dispatches on the modulus: the int64 fast path when products cannot
    overflow (``q < 2**31``), the double-word :func:`_mulmod_f64` for
    ``q < 2**56`` (the paper's 54-bit primes).  Like the other vector
    kernels, array operands must already be residues in ``[0, q)`` —
    signed or oversized inputs go through :func:`reduce_vec` first
    (integer scalars ``b`` are reduced internally).
    """
    klass = native_class(q)
    b = int(b) % q if isinstance(b, (int, np.integer)) \
        else b.astype(np.int64, copy=False)
    if klass == "int64":
        return a.astype(np.int64) * b % q
    return _mulmod_f64(a.astype(np.int64, copy=False), b, b, np.int64(q),
                       1.0 / q)


def negmod_vec(a: np.ndarray, q: int) -> np.ndarray:
    """Vector modular negation."""
    native_class(q)
    return np.where(a == 0, 0, q - a.astype(np.int64))


def reduce_vec(a: np.ndarray, q: int) -> np.ndarray:
    """Fully reduce a vector of (possibly signed / oversized) integers to
    int64 residues; object input (Python integers of any size) is
    reduced exactly first."""
    native_class(q)
    if a.dtype == object:
        return (a % q).astype(np.int64)
    return a.astype(np.int64) % q


# -- limb-stacked (2-D) variants ---------------------------------------------
#
# The stacked compute backend stores all RNS limbs of a polynomial as one
# ``limbs x N`` int64 array with a per-limb modulus vector, so every
# elementwise kernel below executes once across the whole stack instead of
# once per limb (GME section 2.2: per-limb kernels are independent and
# batchable).  A basis takes the tier of its widest modulus: int64 when
# every modulus is below 2**31, the double-word multiply otherwise.


@functools.lru_cache(maxsize=None)
def _basis_class(moduli: tuple[int, ...]) -> str:
    return native_class(max(moduli, default=0))


def stack_native_class(moduli: tuple[int, ...] | list[int]) -> str:
    """Kernel class for a basis: ``"int64"`` or ``"dword"``."""
    return _basis_class(tuple(moduli))


@functools.lru_cache(maxsize=None)
def _q_column_cached(moduli: tuple[int, ...], ndim: int) -> np.ndarray:
    _basis_class(moduli)
    q = np.array(moduli, dtype=np.int64)
    return q.reshape((len(moduli),) + (1,) * (ndim - 1))


def _q_column(moduli, ndim: int) -> np.ndarray:
    """Modulus vector shaped ``(L, 1, ..)`` for broadcasting over a stack.

    Cached per basis (a basis the kernels refuse raises instead); callers
    must never write into the returned array.
    """
    return _q_column_cached(tuple(moduli), ndim)


def _scalar_column(scalars, moduli, ndim: int) -> np.ndarray:
    """``scalars[i] mod q_i`` as an int64 ``(L, 1, ..)`` column."""
    if len(scalars) != len(moduli):
        raise ValueError("need one scalar per limb")
    col = np.array([int(s) % int(q) for s, q in zip(scalars, moduli)],
                   dtype=np.int64)
    return col.reshape((len(moduli),) + (1,) * (ndim - 1))


def stack_residues(limbs: list[np.ndarray],
                   moduli: tuple[int, ...] | list[int]) -> np.ndarray:
    """Stack per-limb residue vectors into one int64 ``(limbs, N)``
    array."""
    if len(limbs) != len(moduli):
        raise ValueError("limb count does not match modulus count")
    return np.stack([np.asarray(limb, dtype=np.int64) for limb in limbs])


def unstack_residues(stack: np.ndarray) -> list[np.ndarray]:
    """Per-limb row views of a stacked array (no copies)."""
    return list(stack)


def addmod_stack(a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
    """Stacked modular addition of reduced operands, row i modulo q_i."""
    qcol = _q_column(moduli, a.ndim)
    # Branchless conditional subtraction: subtract q, then add it back
    # where the result went negative (sign-mask trick; ~3x faster than a
    # masked ufunc and exact since s - q is in (-q, q)).
    s = a + b
    s -= qcol
    s += qcol & (s >> 63)
    return s


def submod_stack(a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
    """Stacked modular subtraction of reduced operands."""
    qcol = _q_column(moduli, a.ndim)
    # Branchless conditional addition via the sign mask of d.
    d = a - b
    d += qcol & (d >> 63)
    return d


def mulmod_stack(a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
    """Stacked modular multiplication of **reduced** operands, row i mod q_i.

    ``b`` may be any shape broadcastable against ``a`` (e.g. per-stage
    twiddle columns).  The int64 single-multiply path below 2**31,
    :func:`_mulmod_f64` below 2**56.  As with :func:`mulmod_vec`,
    operands must be residues in ``[0, q_i)`` (use :func:`reduce_stack`
    for signed values).
    """
    if stack_native_class(moduli) == "int64":
        p = a * b
        np.remainder(p, _q_column(moduli, a.ndim), out=p)
        return p
    if isinstance(b, (int, np.integer)):
        # Reduce integer scalars per modulus, as mulmod_vec does.
        b = _scalar_column([b] * len(moduli), moduli, a.ndim)
    q_col, q_inv_col = _f64_columns(tuple(moduli), a.ndim)
    return _mulmod_f64(a, b, b, q_col, q_inv_col)


def negmod_stack(a: np.ndarray, moduli) -> np.ndarray:
    """Stacked modular negation of reduced operands: ``q_i - a`` with
    ``q_i`` mapped to 0 by a compare-and-select, no division."""
    qcol = _q_column(moduli, a.ndim)
    # d in [1, q]: d - q wraps past d unless d == q, where it is 0.
    u = (qcol - a).view(np.uint64)
    return np.minimum(u, u - qcol.view(np.uint64), out=u).view(np.int64)


def reduce_stack(a: np.ndarray, moduli) -> np.ndarray:
    """Fully reduce a stacked array of (possibly signed) integers to int64
    residues; object input is reduced exactly first."""
    return (a % _q_column(moduli, a.ndim)).astype(np.int64, copy=False)


def center_stack(y: np.ndarray, q_col: np.ndarray,
                 half_col: np.ndarray) -> np.ndarray:
    """Centered lift of reduced residues: ``y - q`` where ``y > q // 2``.

    ``q_col`` / ``half_col`` are the moduli and their floor halves as
    int64 columns broadcastable against ``y``.
    """
    # Sign mask of half - y: all ones exactly where y > half.
    return y - (q_col & ((half_col - y) >> 63))


def scalar_mul_stack(a: np.ndarray, scalars: list[int], moduli) -> np.ndarray:
    """Multiply limb i by ``scalars[i] mod q_i`` across the whole stack."""
    return mulmod_stack(a, _scalar_column(scalars, moduli, a.ndim), moduli)


class BoundScalarMul:
    """:func:`scalar_mul_stack` for per-limb constants that never change.

    The per-level constants of the key-switch datapath and the division
    (``hat{q}_i^{-1}``, ``D^{-1}``) are fixed per modulus chain, so
    everything :func:`scalar_mul_stack` re-derives per call is resolved
    here once: the reduced scalars, the kernel class of the
    basis, and the ready ``(L, 1)`` columns — on the double-word tier the
    constants as float64 too, and the float64 reciprocals of the moduli,
    all :func:`_mulmod_f64` needs.  A call is then a straight line of
    ufuncs, bit-identical to :func:`scalar_mul_stack` on either tier.
    """

    def __init__(self, scalars, moduli):
        self.moduli = tuple(int(q) for q in moduli)
        if len(scalars) != len(self.moduli):
            raise ValueError("need one scalar per limb")
        self.scalars = [int(s) % q for s, q in zip(scalars, self.moduli)]
        self.klass = _basis_class(self.moduli)
        self.q_col, self.q_inv_col = _f64_columns(self.moduli, 2)
        self.col = np.array(self.scalars, dtype=np.int64).reshape(-1, 1)
        self.col_f64 = self.col.astype(np.float64)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """Limb i of the stack ``a`` times ``scalars[i] mod q_i``; ``a`` is
        ``(L, N)``, or ``(comps, L, N)`` for a ciphertext's components
        (reduced or signed, ``|a| < q``)."""
        if self.klass == "int64":
            out = a * self.col
            out %= self.q_col
            return out
        return _mulmod_f64(a, self.col, self.col_f64, self.q_col,
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

        With one table word the product is ``R_0 % q``.  Otherwise the
        products are made top word first and each is folded into a
        Horner sum as soon as it is made — in wrap-around int64 and in
        float64 side by side — so at most one partial product is live
        beside the two sums, and the int64 sum is cast only once the
        second product is made (``words`` go as soon as the last one
        is): past a dozen limbs every intermediate is beyond malloc's
        mmap threshold, where holding one longer than needed is paid in
        page faults.  The reductions sweep one row per modulus, so a
        column broadcasts along whole rows instead of along the
        product's last axis.
        """
        def product(word):
            return (np.matmul(word, words) if table_first
                    else np.matmul(words, word))

        rows = len(q)
        estimate = product(table[-1])
        # Every R_t is an integer below 2**53: the casts are exact.
        if len(table) == 1:
            out = estimate.astype(np.int64)
            flat = out.reshape(rows, -1)
            flat %= q
            return out
        shape = estimate.shape
        estimate = estimate.reshape(rows, -1)
        y = None
        scale = float(1 << self.table_bits)
        for t in range(len(table) - 2, -1, -1):
            part = product(table[t]).reshape(rows, -1)
            if not t:
                del words       # spent
            if y is None:
                y = estimate.astype(np.int64)
            y <<= self.table_bits
            y += part.astype(np.int64)
            estimate *= scale
            estimate += part
            del part
        estimate *= q_inv
        # |y / q - estimate| < 1/4, so rounding it leaves |r| < q.
        y -= np.rint(estimate, out=estimate).astype(np.int64) * q
        u = y.view(np.uint64)
        # A negative r reads as r + 2**64: adding q wraps it into [0, q),
        # below itself; a non-negative one only grows.
        return np.minimum(u, u + q.view(np.uint64)).view(np.int64) \
            .reshape(shape)


def scalar_add_stack(a: np.ndarray, scalars: list[int], moduli) -> np.ndarray:
    """Add ``scalars[i] mod q_i`` to every residue of limb i."""
    return addmod_stack(a, _scalar_column(scalars, moduli, a.ndim), moduli)


def random_residues(shape: int | tuple[int, ...], q: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Uniform int64 residues in ``[0, q)``, an array of ``shape``.

    One bounded draw on both tiers: numpy rejection-samples it, so every
    residue is exactly uniform below any ``q < 2**63``.
    """
    return rng.integers(0, q, size=shape, dtype=np.int64)
