"""Local Data Share (LDS) bank-conflict model.

The CDNA LDS is organized as 32 banks (paper section 2.1).  Sixteen lanes
of a SIMD access the LDS per cycle; when multiple lanes hit the same bank
the accesses serialize.  The model reports access time as the base latency
plus the worst per-bank queue depth minus one.
"""

from __future__ import annotations

import numpy as np


class LdsModel:
    """Bank-conflict timing for one CU's LDS."""

    def __init__(self, num_banks: int = 32, base_latency: int = 12,
                 lanes: int = 16, word_bytes: int = 4):
        self.num_banks = num_banks
        self.base_latency = base_latency
        self.lanes = lanes
        self.word_bytes = word_bytes
        self.accesses = 0
        self.conflict_cycles = 0

    def access_addresses(self, addresses: np.ndarray) -> int:
        """Cycles for one SIMD access to the given byte addresses."""
        banks = (np.asarray(addresses) // self.word_bytes) % self.num_banks
        _, counts = np.unique(banks, return_counts=True)
        extra = int(counts.max()) - 1 if len(counts) else 0
        self.accesses += 1
        self.conflict_cycles += extra
        return self.base_latency + extra

    def access_strided(self, stride_words: int) -> int:
        """Cycles for a constant-stride access pattern.

        Stride 1 (and any stride coprime with the bank count) is
        conflict-free; power-of-two strides hit gcd(stride, banks) fewer
        banks and serialize accordingly -- the varying-stride FHE patterns
        the paper calls out (section 1).
        """
        lanes = self.lanes
        g = np.gcd(stride_words % self.num_banks or self.num_banks,
                   self.num_banks)
        banks_hit = self.num_banks // g
        depth = int(np.ceil(lanes / max(1, banks_hit)))
        extra = depth - 1
        self.accesses += 1
        self.conflict_cycles += extra
        return self.base_latency + extra

    def access_random(self, rng: np.random.Generator) -> int:
        """Cycles for a random-address access (samples bank pattern)."""
        addresses = rng.integers(0, self.num_banks * 64,
                                 size=self.lanes) * self.word_bytes
        return self.access_addresses(addresses)
