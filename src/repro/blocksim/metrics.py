"""Workload-level metrics (the Figure 6 panel) and Equation (1)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.config import GpuConfig, mi100

#: Memory transaction granularity for CPT accounting.
TRANSACTION_BYTES = 64.0


@dataclass
class WorkloadMetrics:
    """Aggregated counters from one block-graph simulation."""

    name: str
    cycles: float = 0.0
    compute_cycles: float = 0.0
    dram_bytes: float = 0.0
    noc_bytes: float = 0.0
    lds_bytes: float = 0.0
    instructions: float = 0.0
    blocks: int = 0
    resident_hits: int = 0
    resident_hit_bytes: float = 0.0
    config: GpuConfig = field(default_factory=mi100)

    def time_ms(self) -> float:
        return self.cycles / (self.config.core_freq_ghz * 1e6)

    @property
    def cu_utilization(self) -> float:
        """Fraction of cycles the CUs spend issuing (not stalled)."""
        if self.cycles <= 0:
            return 0.0
        return min(1.0, self.compute_cycles / self.cycles)

    @property
    def avg_cpt(self) -> float:
        """Average cycles per DRAM memory transaction (Figure 6)."""
        transactions = self.dram_bytes / TRANSACTION_BYTES
        return self.cycles / transactions if transactions else 0.0

    @property
    def dram_bw_utilization(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return min(1.0, self.dram_bytes
                   / (self.cycles * self.config.bytes_per_cycle))

    @property
    def cpi(self) -> float:
        """Cycles per (wavefront) instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def l1_utilization(self) -> float:
        """Share of data traffic that flows through the L1/vector path.

        LDS traffic bypasses the L1 (paper's Figure 6 discussion), so
        enabling cNoC drops this metric.
        """
        total = self.dram_bytes + self.noc_bytes + self.lds_bytes
        return self.dram_bytes / total if total else 0.0


def amortized_mult_time_per_slot_ns(boot_ms: float, mult_us: float,
                                    usable_levels: int,
                                    num_slots: int) -> float:
    """Equation (1): T_A.S. = (T_boot + K * T_mult) / (K * n).

    K is the number of usable levels between bootstraps (L_boot = 17) and
    T_mult the full-level HEMult time: so read, the published Boot and
    HEMult cells give the published T_A.S. cells (the claims ledger's
    ``by Eq. 1`` rows).
    """
    total_ns = boot_ms * 1e6 + usable_levels * mult_us * 1e3
    return total_ns / (usable_levels * num_slots)
