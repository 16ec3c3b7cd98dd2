"""Residue Number System (RNS) machinery for CKKS.

Implements the limb decomposition described in paper section 2.2: the
ciphertext modulus Q is a product of word-sized primes and every big-integer
coefficient is carried as its tuple of residues (its *limbs*).  Also provides
the per-level tables of hybrid key switching (:class:`KeySwitchContext`,
following the standard RNS-CKKS construction) and the tables of the one
division ModDown and rescale share (:class:`Division`): ModUp's
approximate fast base conversion and the division's exact lift, each
bound to one modular matmul on both kernel tiers, with
:meth:`RnsBasis.convert_exact` as the lift of the ``reference`` backend.

The big-integer lifts (``decompose_vec``, ``compose_vec``,
``compose_centered_vec`` and :meth:`RnsBasis.convert_exact`) are the
oracle and the fallback, not a fast path: the scaled residues
``[x_i * hat{q}_i^{-1}]_{q_i}`` come from the per-limb kernels and
everything past them is one object array of Python integers — one CRT sum
(:meth:`RnsBasis._total_object`) for every basis, one ``%`` per target
prime.  A warm batch reaches none of it (``test_kernel_budget.py``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .modmath import (BoundModMatmul, BoundScalarMul, center_stack, invmod,
                      mulmod_vec, reduce_vec, stack_residues, submod_vec)

#: Integers strictly inside ``+-WORD_BOUND`` cross a batch's edges as
#: int64 (the ``.rpa`` wire format's own bound on a coefficient); one
#: beyond it takes the arbitrary-precision paths.
WORD_BOUND = 1 << 62


class RnsBasis:
    """An ordered basis of pairwise-coprime word-sized primes.

    Precomputes the CRT constants: ``big_modulus`` Q, the punctured products
    Q/q_i and their inverses mod q_i, used both for exact composition and for
    approximate base conversion.
    """

    def __init__(self, primes: list[int]):
        if len(set(primes)) != len(primes):
            raise ValueError("RNS basis primes must be distinct")
        self.primes = list(primes)
        self.size = len(primes)
        self.big_modulus = 1
        for q in primes:
            self.big_modulus *= q
        # Punctured products \hat{q}_i = Q / q_i and their inverses mod q_i.
        self.punctured = [self.big_modulus // q for q in primes]
        self.punctured_inv = [invmod(p % q, q)
                              for p, q in zip(self.punctured, primes)]
        # For compose_centered_words: q_0^{-1} mod q_1, and the largest
        # |d_1| that keeps |d_0 + d_1 * q_0| below WORD_BOUND.
        if self.size > 1:
            q0, q1 = primes[:2]
            self._radix_inv = invmod(q0 % q1, q1)
            self._digit_bound = (WORD_BOUND - 1 - q0 // 2) // q0

    def decompose(self, value: int) -> list[int]:
        """Big integer -> residue tuple (one residue per limb)."""
        return [value % q for q in self.primes]

    def decompose_vec(self, values: list[int] | np.ndarray) -> list[np.ndarray]:
        """Vector of big integers -> list of residue vectors (limbs).

        Machine-integer inputs take one vectorized reduction per limb;
        anything else becomes one object array of Python integers,
        reduced per limb.
        """
        if isinstance(values, np.ndarray) and values.dtype.kind == "i":
            return [reduce_vec(values, q) for q in self.primes]
        # Unsigned arrays too: uint64 values >= 2**63 would wrap in
        # reduce_vec's int64 cast.
        big = np.array([int(v) for v in values], dtype=object)
        return [reduce_vec(big, q) for q in self.primes]

    def compose(self, residues: list[int]) -> int:
        """Residue tuple -> unique big integer in [0, Q) (exact CRT)."""
        if len(residues) != self.size:
            raise ValueError(f"expected {self.size} residues, got "
                             f"{len(residues)}")
        total = 0
        for r, q, hat, hat_inv in zip(residues, self.primes, self.punctured,
                                      self.punctured_inv):
            total += ((int(r) * hat_inv) % q) * hat
        return total % self.big_modulus

    def _total_object(self, limbs: list[np.ndarray]) -> np.ndarray:
        """The exact CRT sum in Python integers, reduced into [0, Q):
        ``sum_i [x_i * hat{q}_i^{-1}]_{q_i} * hat{q}_i mod Q``."""
        total = np.zeros(len(limbs[0]), dtype=object)
        for limb, q, hat, hat_inv in zip(limbs, self.primes, self.punctured,
                                         self.punctured_inv):
            total = total + mulmod_vec(limb, hat_inv, q).astype(object) * hat
        total %= self.big_modulus
        return total

    def compose_vec(self, limbs: list[np.ndarray]) -> list[int]:
        """List of residue vectors -> vector of big integers in [0, Q)."""
        return [int(v) for v in self._total_object(limbs)]

    def compose_centered(self, residues: list[int]) -> int:
        """Exact CRT with result centered in (-Q/2, Q/2]."""
        value = self.compose(residues)
        return value - self.big_modulus if value > self.big_modulus // 2 \
            else value

    def compose_centered_vec(self, limbs: list[np.ndarray]) -> np.ndarray:
        """Vectorized exact CRT: residue limbs -> centered big integers.

        Same math as :meth:`compose_centered` per coefficient.
        """
        total = self._total_object(limbs)
        half = self.big_modulus // 2
        return np.where(total > half, total - self.big_modulus, total)

    def compose_centered_words(self, limbs: "list[np.ndarray] | np.ndarray"
                               ) -> np.ndarray | None:
        """:meth:`compose_centered_vec` as one int64 array, or ``None``.

        A decrypted message is small next to Q: its balanced mixed-radix
        digits beyond the second are all zero.  So take the two lowest,
        ``d_0 = [x_0]_{q_0}`` and ``d_1 = [(x_1 - d_0) * q_0^{-1}]_{q_1}``
        (both centered), form the candidate ``v = d_0 + d_1 * q_0`` in
        machine words and check it: ``v = x_i (mod q_i)`` on every
        remaining limb makes v congruent to the composed value modulo Q,
        and ``|v| <= (q_0 * q_1 - 1) / 2 < Q / 2`` (odd primes) makes it
        *the* centered representative — the very integers the exact
        composition returns, with no big integer in between.  With one
        or two limbs there is nothing left to check.

        Declines (``None``) wherever that cannot be shown from the data:
        a ``|d_1|`` that could carry v past :data:`WORD_BOUND` or a limb
        v disagrees with.  ``limbs`` is a list of int64 residue vectors or
        one ``(size, N)`` stack.
        """
        q0 = self.primes[0]
        v = limbs[0] - np.where(limbs[0] > q0 // 2, q0, 0)
        if self.size == 1:
            return v
        q1 = self.primes[1]
        d1 = mulmod_vec(submod_vec(limbs[1], reduce_vec(v, q1), q1),
                        self._radix_inv, q1)
        d1 -= np.where(d1 > q1 // 2, q1, 0)
        if np.abs(d1).max() > self._digit_bound:
            return None
        v += d1 * q0
        for limb, q in zip(limbs[2:], self.primes[2:]):
            if not np.array_equal(v % q, limb):
                return None
        return v

    def convert_exact(self, limbs: list[np.ndarray],
                      target_primes: list[int]) -> list[np.ndarray]:
        """Exact base conversion through centered CRT composition.

        The ModDown lift of the ``reference`` backend and of every context
        that binds no matmul, and the tests' oracle: compose, center,
        reduce per target prime.
        """
        centered = self.compose_centered_vec(limbs)
        return [reduce_vec(centered, p) for p in target_primes]

    def round_quotient(self, centered_columns: np.ndarray) -> list[int]:
        """Exact ``round(sum_i y_i / q_i)`` per column, in Python integers.

        ``centered_columns`` holds centered scaled residues ``y_i`` (one
        row per prime).  ``sum_i y_i / q_i = S / Q`` with
        ``S = sum_i y_i * hat{q}_i``; Q is odd, so ``2S + Q`` is odd and
        the floor below never sits on a tie.
        """
        q = self.big_modulus
        out = []
        for column in centered_columns.T:
            total = sum(int(y) * hat for y, hat in zip(column, self.punctured))
            out.append((2 * total + q) // (2 * q))
        return out

    def subbasis(self, count: int) -> "RnsBasis":
        """Basis formed by the first ``count`` primes."""
        return RnsBasis(self.primes[:count])

    def __repr__(self) -> str:
        bits = self.primes[0].bit_length() if self.primes else 0
        return f"RnsBasis(size={self.size}, ~{bits}-bit primes)"


def digit_spans(level: int, alpha: int) -> list[tuple[int, int]]:
    """Digit limb ranges at ``level``: dnum spans of width ``alpha``."""
    spans = []
    start = 0
    while start <= level:
        stop = min(start + alpha, level + 1)
        spans.append((start, stop))
        start = stop
    return spans


#: A float64 quotient sum whose fractional part is within this distance of
#: 1/2 is not trusted to round the right way; see :func:`exact_quotient`.
QUOTIENT_GUARD = 2.0 ** -40


def exact_quotient(centered_rows: np.ndarray, prime_fracs: np.ndarray,
                   basis: RnsBasis) -> np.ndarray:
    """The quotient ``e = round(sum_j y_j / p_j)`` of an exact lift.

    ``centered_rows`` holds the centered scaled residues ``y_j`` over
    ``basis``, one row per prime; with P the product of its primes, the
    value they stand for satisfies ``sum_j y_j * hat{p}_j = v + e * P``
    with ``|v| <= P / 2``.  The sum
    is taken in float64: each term is off by at most ``2**-53``
    (``|y_j / p_j| <= 1/2``, two roundings) and the k - 1 sequential
    additions by at most ``(k - 1) * (k / 2) * 2**-53`` in all, so it is
    within ``k * (k + 1) * 2**-54`` of the true value — far below
    :data:`QUOTIENT_GUARD` — and rounding it is exact wherever the
    fractional part keeps that distance from 1/2.  The remaining columns
    — about ``2**-39`` of them on uniform input — are rounded in Python
    integers (:meth:`RnsBasis.round_quotient`; P is odd, so no tie
    exists).
    """
    v = (centered_rows.astype(np.float64)
         * prime_fracs.reshape(-1, 1)).sum(axis=0)
    e = np.rint(v).astype(np.int64)
    near = np.flatnonzero(np.abs(v - np.floor(v) - 0.5) < QUOTIENT_GUARD)
    if near.size:
        e[near] = basis.round_quotient(centered_rows[:, near])
    return e


def _column(values) -> np.ndarray:
    return np.array(list(values), dtype=np.int64).reshape(-1, 1)


class Division:
    """The tables of ``round(x / D)`` over ``moduli[:keep]``, where ``D``
    is the product of the dropped primes ``moduli[keep:]``.

    ModDown (``D = P`` over C_l + P), rescale (``D = q_l`` over C_l) and
    the fused ModDown·rescale (``D = P * q_l`` over C_l + P, whose run
    ``q_l, p_1 .. p_k`` is again the trailing limbs) are this one
    division (:meth:`repro.fhe.backend.ComputeBackend.divide_round`):
    ``x - lift`` is a multiple of D, where ``lift`` is the exact centered
    lift of ``[x]_D`` — the value in ``(-D/2, D/2]`` — and scaling it by
    ``D^{-1} mod q_i`` gives the rounded quotient.  Built once per
    ``(moduli, keep)`` and process (:func:`division`), read-only:

    * ``kept`` / ``dropped`` — the two parts of ``moduli``,
    * ``basis`` — the dropped primes with their exact-CRT tables,
    * ``unpuncture`` / ``dropped_col`` / ``dropped_half_col`` — the
      centered scaled residues ``y_j = [x_j * hat{p}_j^{-1}]_{p_j}``,
    * ``prime_fracs`` — ``1 / p_j`` in float64, for the quotient
      ``e = round(sum_j y_j / p_j)`` (:func:`exact_quotient`),
    * ``lift_matmul`` / ``lift_table`` — the ``(keep, k + 1)`` matrix
      ``[ [hat{p}_j]_{q_i} | -[D]_{q_i} ]`` as a split-word matmul
      (:class:`~repro.fhe.modmath.BoundModMatmul`) and its table: the
      lift ``sum_j y_j * hat{p}_j - e * D`` is ``matrix @ [y; e] mod
      q_i``.  ``None`` for one dropped prime, whose lift is its centered
      residue, and where the float64 quotient sum could drift to within
      reach of the guard band (some 90 dropped primes); there the lift
      stays :meth:`RnsBasis.convert_exact`,
    * ``kept_col`` / ``kept_inv_col`` — the kept primes as a column and
      their float64 reciprocals,
    * ``scale`` — the bound ``D^{-1} mod q_i`` scaling (``.scalars`` per
      kept prime for the per-limb backend).
    """

    def __init__(self, moduli: tuple[int, ...], keep: int):
        if not 0 < keep < len(moduli):
            raise ValueError(f"a division keeps 1 .. {len(moduli) - 1} of "
                             f"{len(moduli)} limbs, not {keep}")
        self.keep = keep
        self.kept, self.dropped = moduli[:keep], moduli[keep:]
        self.basis = RnsBasis(list(self.dropped))
        divisor = self.basis.big_modulus
        self.unpuncture = BoundScalarMul(self.basis.punctured_inv,
                                         self.dropped)
        self.dropped_col = _column(self.dropped)
        self.dropped_half_col = _column(p // 2 for p in self.dropped)
        self.prime_fracs = np.array([1.0 / p for p in self.dropped])
        self.kept_col = _column(self.kept)
        self.kept_inv_col = 1.0 / self.kept_col
        self.scale = BoundScalarMul(
            [invmod(divisor % q, q) for q in self.kept], self.kept)
        self.lift_matmul = self.lift_table = None
        k = len(self.dropped)
        if 1 < k and k * (k + 1) * 2.0 ** -54 < QUOTIENT_GUARD / 2:
            # Operands: centered residues of the dropped primes, and the
            # quotient |e| <= k/2 + 1, far smaller.
            self.lift_matmul = BoundModMatmul(max(self.kept), k + 1,
                                              max(self.dropped))
            self.lift_table = self.lift_matmul.table(
                np.array([[hat % q for hat in self.basis.punctured]
                          + [-divisor % q] for q in self.kept],
                         dtype=np.int64), self.kept, -1)

    def lift(self, coeff: np.ndarray) -> np.ndarray:
        """The exact centered lift of COEFF rows over :attr:`dropped` to
        the kept primes: a ``(keep, M)`` int64 stack for the ``(k, M)``
        stack ``coeff``, row i congruent to the lift modulo ``kept[i]``.

        That is ``sum_j y_j * hat{p}_j - e * D`` with the true quotient
        ``e``: one split-word matmul, or :meth:`RnsBasis.convert_exact`
        where none is bound — the same integers, reduced.  A one-prime
        divisor's lift is its centered residue itself (``hat{p} = 1``,
        ``e = 0``), unreduced: the forward transform reduces it.
        """
        if len(coeff) == 1:
            return np.broadcast_to(
                center_stack(coeff, self.dropped_col, self.dropped_half_col),
                (self.keep, coeff.shape[1]))
        if self.lift_matmul is None:
            return stack_residues(
                self.basis.convert_exact(list(coeff), list(self.kept)),
                self.kept)
        k = len(coeff)
        operands = np.empty((k + 1, coeff.shape[1]), dtype=np.int64)
        operands[:k] = center_stack(self.unpuncture(coeff), self.dropped_col,
                                    self.dropped_half_col)
        operands[k] = exact_quotient(operands[:k], self.prime_fracs,
                                     self.basis)
        return self.lift_matmul.left(self.lift_table, operands,
                                     self.kept_col, self.kept_inv_col)


@functools.lru_cache(maxsize=256)
def division(moduli: tuple[int, ...], keep: int) -> Division:
    """The :class:`Division` tables of ``round(x / D)`` from ``moduli``
    to ``moduli[:keep]``; built once per process (the tables are a pure
    function of their arguments) and shared by every backend."""
    return Division(moduli, keep)


class KeySwitchContext:
    """Precomputed per-level tables for hybrid key switching.

    Everything KeySwitch needs per level is resolved once here — the
    constants, the kernel class of each basis, and the ready columns and
    tables the stacked kernels sweep — and cached per level by
    :meth:`repro.fhe.backend.ComputeBackend.keyswitch_context`.  Built
    eagerly: worker threads share these contexts.

    Digit decomposition and ModUp

    * ``digit_spans[j]`` — the limb range of digit j; the digit is the
      unscaled residue ``[x]_{Q_j}`` of those limbs, which the switching
      key's CRT-idempotent gadget (:mod:`repro.fhe.keys`) makes exact,
    * ``digit_bases[j]`` — digit j's primes with their CRT tables,
    * ``digit_unpuncture[j]`` — the bound ``hat{q}_i^{-1}`` scaling that
      starts ModUp, with ``digit_q_col[j]`` / ``digit_half_col[j]`` to
      center its result,
    * ``modup_weights[j]`` — the ``(|extended|, |digit j|)`` matrix of
      punctured digit products ``hat{q}_i mod p`` driving the approximate
      base conversion of ModUp (centered variant: ``weights @ c mod p``
      for the centered residues ``c``),
    * ``modup_matmul`` / ``modup_tables[j]`` — that product on either
      tier: the split-word float64 matmul sized for the widest digit
      (:class:`~repro.fhe.modmath.BoundModMatmul`; one table word,
      reduced with ``%``, below 2**31) and its table of
      ``modup_weights[j]``,
    * ``extended_col`` — the extended basis as a column,
      ``extended_inv_col`` its float64 reciprocals.

    ModDown and ModDown·rescale

    * ``p_prod`` — ``P``, the product of the special primes.  ModDown is
      the :class:`Division` of C_l + P by P (``keep = l + 1``); a fused
      rescale forms ``Z = x + P * d`` on C_l's rows and divides it by
      ``P * q_l`` (``keep = l``).  Their tables are :func:`division`'s.

    The tables are backend-agnostic: the ``reference`` backend walks the
    plain lists limb by limb, the ``stacked`` backend sweeps the bound
    columns across whole limb stacks.  Both consume identical integers,
    keeping the backends bit-exact.
    """

    def __init__(self, params, level: int):
        ct_moduli = tuple(params.moduli[:level + 1])
        special = tuple(params.special_moduli)
        self.level = level
        self.ct_moduli = ct_moduli
        self.special_moduli = special
        self.extended = ct_moduli + special
        self.num_ct = len(ct_moduli)
        self.digit_spans = digit_spans(level, params.alpha)
        self.p_prod = math.prod(special)
        # ModUp's kernel, bound here.
        self.extended_col = _column(self.extended)
        self.extended_inv_col = 1.0 / self.extended_col
        # Operands: centered residues of the ciphertext primes.
        self.modup_matmul = BoundModMatmul(
            max(self.extended),
            max(stop - start for start, stop in self.digit_spans),
            max(ct_moduli))
        self.digit_bases: list[RnsBasis] = []
        self.digit_unpuncture: list[BoundScalarMul] = []
        self.digit_q_col: list[np.ndarray] = []
        self.digit_half_col: list[np.ndarray] = []
        self.modup_weights: list[np.ndarray] = []
        self.modup_tables: list[tuple] = []
        for start, stop in self.digit_spans:
            basis = RnsBasis(list(ct_moduli[start:stop]))
            self.digit_bases.append(basis)
            self.digit_unpuncture.append(
                BoundScalarMul(basis.punctured_inv, basis.primes))
            self.digit_q_col.append(_column(basis.primes))
            self.digit_half_col.append(_column(q // 2 for q in basis.primes))
            weights = np.array([[hat % p for hat in basis.punctured]
                                for p in self.extended], dtype=np.int64)
            self.modup_weights.append(weights)
            self.modup_tables.append(
                self.modup_matmul.table(weights, self.extended, -1))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"KeySwitchContext(level={self.level}, "
                f"digits={len(self.digit_spans)}, "
                f"extended={len(self.extended)} limbs)")
