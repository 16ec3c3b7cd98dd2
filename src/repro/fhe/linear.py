"""Homomorphic linear transforms (plaintext matrix x encrypted vector).

Implements the diagonal (Halevi--Shoup) method with baby-step/giant-step
(BSGS) rotation batching.  This is the workhorse of the bootstrapping linear
stages (CoeffToSlot / SlotToCoeff) and of the HE-LR workload: an n x n
plaintext matrix applied to an encrypted slot vector costs about 2*sqrt(n)
HERotate operations plus one PolyMult per non-zero diagonal.

The baby-step rotations are all rotations of the *same* input ciphertext,
so they run through the evaluator's hoisted path: one digit decompose +
ModUp of c1 serves the whole baby-step batch (rotation hoisting).

Every product and sum is an evaluator call, i.e. a row of the op table
(:data:`repro.trace.ops.OPS`): a BSGS inner sum is
``poly_mult(baby, diagonal, rescale=False)`` terms added by ``he_add``,
rescaled once after the giant steps, and :func:`multiply_by_i` is one
``poly_mult`` by a monomial.  So both run on a real, a symbolic or a
recording evaluator alike, and a recording of them replays and lints
like any program.
"""

from __future__ import annotations

import functools
import math
from typing import Any

import numpy as np

from .encoder import Plaintext
from .polyval import Evaluator, Handle

#: Diagonals with max |entry| below this are treated as structurally zero.
ZERO_DIAGONAL_TOLERANCE = 1e-12


def matrix_diagonals(matrix: np.ndarray[Any, Any]
                     ) -> dict[int, np.ndarray[Any, Any]]:
    """Extract the non-zero generalized diagonals d_k[j] = M[j, (j+k) % n]."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    rows = np.arange(n)
    diagonals: dict[int, np.ndarray[Any, Any]] = {}
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

    def __init__(self, evaluator: Evaluator, matrix: np.ndarray[Any, Any],
                 name: str = "linear") -> None:
        self.evaluator = evaluator
        self.name = name
        self.diagonals = matrix_diagonals(matrix)
        self.dimension = np.asarray(matrix).shape[0]
        if self.dimension != evaluator.params.num_slots:
            raise ValueError(
                f"matrix dimension {self.dimension} != slot count "
                f"{evaluator.params.num_slots}")
        #: Each diagonal encoded by the evaluator's encoder.
        self._encoded: dict[int, Any] = {}

    @property
    def num_diagonals(self) -> int:
        return len(self.diagonals)

    def _giant_step(self) -> int:
        return max(1, int(math.ceil(math.sqrt(len(self.diagonals)))))

    def apply(self, ct: Handle) -> Handle:
        """Compute Enc(M @ z) from Enc(z); consumes one level."""
        evaluator = self.evaluator
        if not self.diagonals:
            return evaluator.scalar_mult(ct, 0.0)
        giant = self._giant_step()
        # Baby rotations rot_j(ct) for every needed j = k mod giant: one
        # hoisted Decomp+ModUp of c1 shared across the whole batch.
        babies = {0: ct, **evaluator.hoisted_rotations(
            ct, {k % giant for k in self.diagonals} - {0})}
        # Group diagonals by giant step i*giant.
        groups: dict[int, list[int]] = {}
        for k in self.diagonals:
            groups.setdefault((k // giant) * giant, []).append(k)
        accum: Handle | None = None
        for shift, ks in sorted(groups.items()):
            inner: Handle | None = None
            for k in ks:
                # Unrescaled: the one rescale follows the giant steps.
                term = evaluator.poly_mult(babies[k % giant],
                                           self._encoded_diagonal(k, shift),
                                           rescale=False)
                inner = term if inner is None else \
                    evaluator.he_add(inner, term)
            rotated = inner if shift == 0 else \
                evaluator.he_rotate(inner, shift)
            accum = rotated if accum is None else \
                evaluator.he_add(accum, rotated)
        return evaluator.rescale(accum)

    def _encoded_diagonal(self, k: int, shift: int) -> Any:
        """rot_{-shift}(d_k), encoded at Delta.

        ``shift`` is a function of ``k`` alone, so one encoding per
        diagonal serves every level: the plaintext prepares its operand
        once per level (:meth:`~repro.fhe.encoder.Plaintext.as_eval`).
        """
        pt = self._encoded.get(k)
        if pt is None:
            evaluator = self.evaluator
            diag = np.roll(self.diagonals[k], shift)
            pt = evaluator.encoder.encode(diag, evaluator.params.scale)
            self._encoded[k] = pt
        return pt


def multiply_by_i(evaluator: Evaluator, ct: Handle) -> Handle:
    """Multiply every slot by the imaginary unit, exactly and for free.

    Multiplication by the monomial x^(N/2) maps slot j to
    zeta^(e_j * N/2) * z_j = i^(e_j) * z_j, and every slot exponent
    satisfies e_j = 5^j === 1 (mod 4), so this is exactly *i in all slots.
    The monomial is encoded at scale 1.0, so the unrescaled ``poly_mult``
    consumes no scale or level and adds no noise beyond a permutation.
    """
    return evaluator.poly_mult(ct, _monomial(evaluator.params.ring_degree),
                               rescale=False)


@functools.cache
def _monomial(ring_degree: int) -> Plaintext:
    """x^(N/2) at scale 1.0, made once per ring degree (it prepares its
    operand once per basis, like any plaintext)."""
    coeffs = np.zeros(ring_degree, dtype=np.int64)
    coeffs[ring_degree // 2] = 1
    return Plaintext(coeffs=coeffs, scale=1.0, num_slots=ring_degree // 2)
