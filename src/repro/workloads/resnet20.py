"""Encrypted ResNet-20 on CIFAR-10 (Lee et al. [50]).

:class:`EncryptedConvLayer` is a functional encrypted 3x3 convolution on
the CKKS substrate (rotation + plaintext-multiply formulation), used by
the encrypted-inference example and integration tests.  The block DAG of
the full network (Table 8 / Figures 6-8) is compiled from
:func:`repro.workloads.programs.resnet20_program`.
"""

from __future__ import annotations

import numpy as np

from repro.fhe import CkksContext


class EncryptedConvLayer:
    """Functional encrypted 3x3 convolution (single channel).

    The image is packed row-major into slots; each kernel tap becomes a
    slot rotation followed by a plaintext mask-and-weight multiply --
    the multiplexed-convolution formulation of [50] restricted to one
    channel for test-scale rings.
    """

    def __init__(self, ctx: CkksContext, image_size: int,
                 kernel: np.ndarray, evaluator=None):
        """``evaluator`` overrides ``ctx.evaluator`` — pass a
        :class:`~repro.trace.TracingEvaluator` to record the convolution
        as an op trace."""
        kernel = np.asarray(kernel, dtype=float)
        if kernel.shape != (3, 3):
            raise ValueError("kernel must be 3x3")
        if image_size * image_size > ctx.params.num_slots:
            raise ValueError("image does not fit in the slot vector")
        self.ctx = ctx
        self.evaluator = evaluator or ctx.evaluator
        self.image_size = image_size
        self.kernel = kernel

    def _tap_mask(self, dy: int, dx: int) -> np.ndarray:
        """Valid-region mask for a kernel tap (zero padding semantics)."""
        size = self.image_size
        mask = np.zeros(self.ctx.params.num_slots)
        for y in range(size):
            for x in range(size):
                sy, sx = y + dy, x + dx
                if 0 <= sy < size and 0 <= sx < size:
                    mask[y * size + x] = 1.0
        return mask

    def apply(self, ct):
        """Convolve an encrypted packed image; returns a ciphertext."""
        evaluator = self.evaluator
        size = self.image_size
        out = None
        for dy in range(-1, 2):
            for dx in range(-1, 2):
                weight = float(self.kernel[dy + 1, dx + 1])
                if weight == 0.0:
                    continue
                shift = dy * size + dx
                rotated = evaluator.he_rotate(ct, shift)
                mask = self._tap_mask(dy, dx) * weight
                pt = self.ctx.encoder.encode(mask)
                term = evaluator.poly_mult(rotated, pt)
                out = term if out is None else evaluator.he_add(out, term)
        return out

    def reference(self, image: np.ndarray) -> np.ndarray:
        """Plaintext oracle: zero-padded 3x3 convolution."""
        size = self.image_size
        out = np.zeros((size, size))
        for y in range(size):
            for x in range(size):
                total = 0.0
                for dy in range(-1, 2):
                    for dx in range(-1, 2):
                        sy, sx = y + dy, x + dx
                        if 0 <= sy < size and 0 <= sx < size:
                            total += self.kernel[dy + 1, dx + 1] \
                                * image[sy, sx]
                out[y, x] = total
        return out
