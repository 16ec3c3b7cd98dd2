"""Ciphertext container for RNS-CKKS."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .poly import Polynomial


@dataclass
class Ciphertext:
    """JmK = (c0, c1) with m ~ c0 + c1*s (mod Q_level, scale Delta).

    In the paper's notation (Table 1/2) c0 = B_m and c1 = A_m.  Both
    polynomials are kept in EVAL (NTT) representation between operations,
    matching the paper's default.

    ``c2`` is set only on the degree-2 product an unrelinearized
    ``he_mult`` / ``he_square`` returns: m ~ c0 + c1*s + c2*s^2.  It
    can be rescaled and decrypted, and every other evaluator op refuses
    it.
    """

    c0: Polynomial
    c1: Polynomial
    level: int
    scale: float
    c2: Polynomial | None = None

    @property
    def num_limbs(self) -> int:
        return self.level + 1

    @property
    def relinearized(self) -> bool:
        """False on a degree-2 product (one that carries ``c2``)."""
        return self.c2 is None

    @property
    def components(self) -> tuple[Polynomial, ...]:
        """``(c0, c1)``, or ``(c0, c1, c2)`` for a degree-2 product."""
        if self.c2 is None:
            return self.c0, self.c1
        return self.c0, self.c1, self.c2

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.c0.copy(), self.c1.copy(), self.level,
                          self.scale,
                          None if self.c2 is None else self.c2.copy())

    def __repr__(self) -> str:
        log_scale = math.log2(self.scale) if self.scale > 0 else float("-inf")
        return f"Ciphertext(level={self.level}, scale=2^{log_scale:.2f})"


def require_relinearized(op: str | None, *cts) -> None:
    """Refuse a degree-2 ciphertext at ``op``: only rescale and
    decryption read one.  Any handle with ``relinearized`` will do, the
    symbolic evaluator's too."""
    if not all(ct.relinearized for ct in cts):
        raise ValueError(
            f"{op} takes a relinearized ciphertext; this one is a product "
            "made with relinearize=False, which can only be rescaled and "
            "decrypted")
