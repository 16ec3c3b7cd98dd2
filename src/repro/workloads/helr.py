"""HE-LR: homomorphic logistic-regression training (Han et al. [35]).

:class:`EncryptedLogisticRegression` is a *functional* encrypted LR
trainer running on the real CKKS substrate at test parameters (used by
the examples and integration tests).  The 30-iteration block DAG of the
performance model (Table 8 / Figures 6-7) is compiled from
:func:`repro.workloads.programs.helr_program`.
"""

from __future__ import annotations

import numpy as np

from repro.fhe import CkksContext
from repro.fhe.packing import rotate_sum
from repro.fhe.polyval import evaluate_polynomial

#: Degree-3 least-squares sigmoid approximation used by HELR [35].
SIGMOID_COEFFS = [0.5, 0.15012, 0.0, -0.0015930]


class EncryptedLogisticRegression:
    """Functional encrypted LR training on the CKKS substrate.

    Features are packed one-sample-per-slot per feature ciphertext;
    gradients use the degree-3 sigmoid approximation.  Labels must be in
    {0, 1}; features should be normalized to [-1, 1].
    """

    def __init__(self, ctx: CkksContext, num_features: int,
                 learning_rate: float = 1.0, evaluator=None):
        """``evaluator`` overrides ``ctx.evaluator`` — pass a
        :class:`~repro.trace.TracingEvaluator` to record the training
        step as an op trace."""
        if num_features < 1:
            raise ValueError("need at least one feature")
        self.ctx = ctx
        self.evaluator = evaluator or ctx.evaluator
        self.num_features = num_features
        self.learning_rate = learning_rate
        self.weights = np.zeros(num_features)

    def train_step(self, features: np.ndarray,
                   labels: np.ndarray) -> np.ndarray:
        """One encrypted batch-gradient step; returns decrypted weights.

        The batch is encrypted column-wise (one ciphertext per feature);
        the weighted sum, sigmoid and gradient all happen under
        encryption.  Weights are decrypted at the end of the step (as in
        HELR, where the model owner holds the key).
        """
        batch, nf = features.shape
        if nf != self.num_features:
            raise ValueError(f"expected {self.num_features} features")
        n = self.ctx.params.num_slots
        if batch > n:
            raise ValueError(f"batch {batch} exceeds {n} slots")
        evaluator = self.evaluator
        columns = [self.ctx.encrypt(features[:, j]) for j in range(nf)]
        # z = X w (accumulated under encryption).
        z_ct = evaluator.scalar_mult(columns[0], float(self.weights[0]))
        for j in range(1, nf):
            term = evaluator.scalar_mult(columns[j],
                                         float(self.weights[j]))
            z_ct = evaluator.he_add(z_ct, term)
        # p = sigmoid(z) via the degree-3 HELR approximation.
        p_ct = evaluate_polynomial(evaluator, z_ct, SIGMOID_COEFFS)
        # error = p - y  (labels enter as a plaintext polynomial).
        y_pt = self.ctx.encoder.encode(labels, p_ct.scale)
        err_ct = evaluator.he_sub(p_ct, evaluator.poly_add(
            evaluator.scalar_mult_int(p_ct, 0), y_pt))
        # gradient_j = sum_i err_i * x_ij / batch, computed under
        # encryption: per-feature product + rotate-and-add reduction.
        if batch & (batch - 1):
            raise ValueError("batch size must be a power of two")
        gradient = np.zeros(nf)
        for j in range(nf):
            prod = rotate_sum(evaluator,
                              evaluator.he_mult(err_ct, columns[j]),
                              batch)
            gradient[j] = self.ctx.decrypt(prod)[0].real / batch
        self.weights = self.weights - self.learning_rate * gradient
        return self.weights

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Plaintext inference with the trained weights."""
        z = features @ self.weights
        return 1.0 / (1.0 + np.exp(-z))
