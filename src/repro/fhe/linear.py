"""Homomorphic linear transforms (plaintext matrix x encrypted vector).

Implements the diagonal (Halevi--Shoup) method with baby-step/giant-step
(BSGS) rotation batching.  This is the workhorse of the bootstrapping linear
stages (CoeffToSlot / SlotToCoeff) and of the HE-LR workload: an n x n
plaintext matrix applied to an encrypted slot vector costs about 2*sqrt(n)
HERotate operations plus one PolyMult per non-zero diagonal.

The baby-step rotations are all rotations of the *same* input ciphertext,
so they run through the evaluator's hoisted path: one digit decompose +
ModUp of c1 serves the whole baby-step batch (rotation hoisting).
"""

from __future__ import annotations

import math

import numpy as np

from repro.trace.ops import require_relinearized

from .ciphertext import Ciphertext
from .encoder import Plaintext
from .evaluator import CkksEvaluator
from .poly import Polynomial

#: Diagonals with max |entry| below this are treated as structurally zero.
ZERO_DIAGONAL_TOLERANCE = 1e-12


def matrix_diagonals(matrix: np.ndarray) -> dict[int, np.ndarray]:
    """Extract the non-zero generalized diagonals d_k[j] = M[j, (j+k) % n]."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    rows = np.arange(n)
    diagonals = {}
    for k in range(n):
        diag = matrix[rows, (rows + k) % n]
        if np.max(np.abs(diag)) > ZERO_DIAGONAL_TOLERANCE:
            diagonals[k] = diag
    return diagonals


class LinearTransform:
    """A plaintext n x n matrix applied homomorphically via BSGS.

    Each diagonal is encoded once; its EVAL-form operand is prepared once
    per ciphertext level by the plaintext itself
    (:meth:`~repro.fhe.encoder.Plaintext.as_eval`), so repeated
    applications (e.g. every bootstrap call) pay neither cost again.
    """

    def __init__(self, evaluator: CkksEvaluator, matrix: np.ndarray,
                 name: str = "linear"):
        self.evaluator = evaluator
        self.name = name
        self.diagonals = matrix_diagonals(matrix)
        self.dimension = np.asarray(matrix).shape[0]
        if self.dimension != evaluator.params.num_slots:
            raise ValueError(
                f"matrix dimension {self.dimension} != slot count "
                f"{evaluator.params.num_slots}")
        self._encoded: dict[int, Plaintext] = {}

    @property
    def num_diagonals(self) -> int:
        return len(self.diagonals)

    def _giant_step(self) -> int:
        return max(1, int(math.ceil(math.sqrt(len(self.diagonals)))))

    def apply(self, ct: Ciphertext) -> Ciphertext:
        """Compute Enc(M @ z) from Enc(z); consumes one level."""
        evaluator = self.evaluator
        if not self.diagonals:
            zero = evaluator.scalar_mult_int(ct, 0)
            return evaluator.rescale(
                Ciphertext(zero.c0, zero.c1, zero.level,
                           zero.scale * evaluator.params.scale))
        giant = self._giant_step()
        # Baby rotations rot_j(ct) for every needed j = k mod giant: one
        # hoisted Decomp+ModUp of c1 shared across the whole batch.
        babies = {0: ct, **evaluator.hoisted_rotations(
            ct, {k % giant for k in self.diagonals} - {0})}
        # Group diagonals by giant step i*giant.
        groups: dict[int, list[int]] = {}
        for k in self.diagonals:
            groups.setdefault((k // giant) * giant, []).append(k)
        accum: Ciphertext | None = None
        for shift, ks in sorted(groups.items()):
            inner: Ciphertext | None = None
            for k in ks:
                pt_poly = self._encoded_diagonal(k, shift, ct)
                term0 = babies[k % giant].c0 * pt_poly
                term1 = babies[k % giant].c1 * pt_poly
                if inner is None:
                    inner = Ciphertext(term0, term1, ct.level,
                                       ct.scale * evaluator.params.scale)
                else:
                    inner = Ciphertext(inner.c0 + term0, inner.c1 + term1,
                                       inner.level, inner.scale)
            rotated = inner if shift == 0 else \
                evaluator.he_rotate(inner, shift)
            accum = rotated if accum is None else \
                evaluator.he_add(accum, rotated)
        return evaluator.rescale(accum)

    def _encoded_diagonal(self, k: int, shift: int,
                          ct: Ciphertext) -> Polynomial:
        """rot_{-shift}(d_k) as an operand at the ciphertext's level.

        ``shift`` is a function of ``k`` alone, so one encoding per
        diagonal serves every level.
        """
        evaluator = self.evaluator
        pt = self._encoded.get(k)
        if pt is None:
            diag = np.roll(self.diagonals[k], shift)
            pt = evaluator.encoder.encode(diag, evaluator.params.scale)
            self._encoded[k] = pt
        return pt.as_eval(evaluator.context,
                          evaluator.params.moduli[:ct.level + 1])


def multiply_by_i(evaluator: CkksEvaluator, ct: Ciphertext) -> Ciphertext:
    """Multiply every slot by the imaginary unit, exactly and for free.

    Multiplication by the monomial x^(N/2) maps slot j to
    zeta^(e_j * N/2) * z_j = i^(e_j) * z_j, and every slot exponent
    satisfies e_j = 5^j === 1 (mod 4), so this is exactly *i in all slots.
    No scale is consumed and no noise is added beyond a permutation.
    """
    require_relinearized("multiply_by_i", ct)
    params = evaluator.params
    n = params.ring_degree
    monomial = _monomial_eval(evaluator, n // 2, ct.c0.moduli)
    return Ciphertext(c0=ct.c0 * monomial, c1=ct.c1 * monomial,
                      level=ct.level, scale=ct.scale)


def _monomial_eval(evaluator: CkksEvaluator, power: int,
                   moduli: tuple[int, ...]) -> Polynomial:
    """NTT of x^power over the given basis (cached on the evaluator)."""
    cache = getattr(evaluator, "_monomial_cache", None)
    if cache is None:
        cache = {}
        evaluator._monomial_cache = cache
    key = (power, moduli)
    if key not in cache:
        coeffs = np.zeros(evaluator.params.ring_degree, dtype=np.int64)
        coeffs[power] = 1
        cache[key] = evaluator.context.from_signed_coeffs(coeffs,
                                                          moduli).to_eval()
    return cache[key]
