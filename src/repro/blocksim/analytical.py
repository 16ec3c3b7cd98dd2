"""Analytical per-block timing under a feature set (BlockSim's core).

Timing composes three lanes:

* **compute** -- issue-slot occupancy of the block's modular ops and NTT
  butterflies at the active pipeline profile (Table 4 economics),
* **DRAM** -- compulsory streams (operands, keys) plus, on the baseline,
  the redundant intermediate traffic that bounces through DRAM between the
  block's internal kernels,
* **on-chip** -- with cNoC, intermediates move across the global LDS /
  torus instead of DRAM.

``block_cycles = max(compute, memory) + overlap_penalty * min(...)``
models the partial compute/memory overlap of a streaming GPU workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gme.cnoc import ConcentratedTorus
from repro.gme.features import FeatureSet
from repro.gpusim.config import GpuConfig, mi100
from repro.gpusim.isa import ISSUE_CYCLES

from . import calibration as cal
from .blocks import BlockCost

#: Wavefront width: scalar ops per wavefront instruction.
WAVE = 64


@dataclass(frozen=True)
class BlockTiming:
    """Timing decomposition of one block execution (cycles)."""

    name: str
    compute_cycles: float
    dram_cycles: float
    onchip_cycles: float
    total_cycles: float
    dram_bytes: float
    noc_bytes: float
    instructions: float

    @property
    def memory_cycles(self) -> float:
        return self.dram_cycles + self.onchip_cycles


class AnalyticalTimingModel:
    """Maps block costs to cycles for a (GPU config, feature set) pair."""

    def __init__(self, features: FeatureSet,
                 config: GpuConfig | None = None):
        self.features = features
        self.config = config or mi100()
        self.profile = features.pipeline_profile()
        self.torus = ConcentratedTorus(self.config) if features.cnoc \
            else None

    # -- compute lane -----------------------------------------------------

    def _issue_slots(self, cost: BlockCost) -> float:
        table = ISSUE_CYCLES[self.profile]
        return (cost.mod_mul * table["mod_mul"]
                + cost.mod_add * table["mod_add"]
                + cost.ntt_butterflies * table["ntt_butterfly"]
                + cost.mov * table["mov"]) / WAVE

    def compute_cycles(self, cost: BlockCost) -> float:
        simds = self.config.num_cus * self.config.simd_per_cu
        return self._issue_slots(cost) / (simds * cal.ISSUE_EFFICIENCY)

    def instruction_count(self, cost: BlockCost) -> float:
        """Dynamic wavefront-instruction count at the active profile.

        Emulated 64-bit sequences issue one instruction per 4-cycle slot,
        so the count shrinks when MOD/WMAC fuse them -- which is why the
        paper's CPI *rises* with the MOD extension (Figure 6 discussion).
        """
        return self._issue_slots(cost) / 4.0

    # -- memory lanes -----------------------------------------------------

    def _dram_cycles(self, stream_bytes: float, key_bytes: float,
                     gather_bytes: float) -> float:
        bpc = self.config.bytes_per_cycle
        eff_stream = cal.CNOC_BW_EFFICIENCY if self.features.cnoc \
            else cal.BASELINE_BW_EFFICIENCY
        cycles = stream_bytes / (bpc * eff_stream)
        cycles += key_bytes / (bpc * cal.KEY_BW_EFFICIENCY)
        if gather_bytes:
            cycles += gather_bytes / (bpc * cal.GATHER_BW_EFFICIENCY)
        return cycles

    def _onchip_cycles(self, noc_bytes: float, lds_bytes: float) -> float:
        cycles = 0.0
        if noc_bytes and self.torus is not None:
            cycles += noc_bytes / self.torus.effective_bandwidth()
        if lds_bytes:
            # Aggregate LDS port bandwidth across CUs.
            lds_bw = self.config.num_cus * 128.0
            cycles += lds_bytes / lds_bw
        return cycles

    # -- composition ---------------------------------------------------------

    def _effective_key_bytes(self, key_bytes: float,
                             labs_grouped: bool = False) -> float:
        """Key traffic after LDS key-slice caching and LABS grouping."""
        if not self.features.cnoc or key_bytes <= 0:
            return key_bytes
        lds_total = (self.config.num_cus * self.config.lds_kb_per_cu
                     * 1024 * self.features.lds_scale)
        coverage = cal.KEY_REUSE_COVERAGE * min(
            1.0, lds_total / cal.KEY_WORKING_SET_BYTES)
        effective = key_bytes * (1.0 - coverage)
        if labs_grouped and self.features.labs:
            effective *= cal.LABS_KEY_REUSE
        return effective

    def block_timing(self, cost: BlockCost,
                     resident_input_bytes: float = 0.0,
                     resident_output: bool = False,
                     labs_grouped: bool = False) -> BlockTiming:
        """Time one block given how much of its input is LDS-resident.

        ``resident_input_bytes`` of the operand inputs are served from the
        global LDS (cNoC only); the rest streams from DRAM.  When
        ``resident_output`` is True the output stays on-chip.
        ``labs_grouped`` marks blocks whose switching key is shared with an
        adjacent block under the LABS schedule.
        """
        compute = self.compute_cycles(cost)
        if self.features.cnoc:
            resident_in = min(resident_input_bytes, cost.input_bytes)
            stream = cost.input_bytes - resident_in
            if not resident_output:
                stream += cost.output_bytes
            # Intermediates live in the global LDS; the share crossing
            # shader-engine boundaries rides the torus.  Oversized
            # intermediates (spill) still bounce through DRAM at the
            # strided-key efficiency.
            noc_bytes = cost.intermediate_bytes * cal.NOC_TRAFFIC_SHARE \
                + resident_in
            lds_bytes = cost.intermediate_bytes \
                * (1.0 - cal.NOC_TRAFFIC_SHARE)
            key_eff = self._effective_key_bytes(cost.key_bytes,
                                                labs_grouped)
            dram = self._dram_cycles(stream, key_eff + cost.spill_bytes,
                                     0.0)
            onchip = self._onchip_cycles(noc_bytes, lds_bytes)
            dram_bytes = stream + key_eff + cost.spill_bytes
        else:
            # Baseline: everything round-trips through DRAM, and the
            # intermediate traffic is amplified by redundant re-fetches.
            gather = (cost.intermediate_bytes + cost.spill_bytes) \
                * cal.BASELINE_REDUNDANCY
            stream = cost.input_bytes + cost.output_bytes
            dram = self._dram_cycles(stream, cost.key_bytes, gather)
            onchip = 0.0
            noc_bytes = 0.0
            dram_bytes = stream + cost.key_bytes + gather
        memory = dram + onchip
        total = max(compute, memory) \
            + cal.OVERLAP_PENALTY * min(compute, memory) \
            + cal.BLOCK_LAUNCH_OVERHEAD_CYCLES
        return BlockTiming(
            name=cost.name,
            compute_cycles=compute,
            dram_cycles=dram,
            onchip_cycles=onchip,
            total_cycles=total,
            dram_bytes=dram_bytes,
            noc_bytes=noc_bytes,
            instructions=self.instruction_count(cost),
        )

    def to_us(self, cycles: float) -> float:
        return cycles / (self.config.core_freq_ghz * 1e3)
