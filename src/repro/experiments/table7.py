"""Table 7: per-block latencies for Baseline MI100 and GME + speedups.

Measurement context (mirrors the paper's single-block methodology, with
LABS excluded): blocks are timed mid-stream -- for two-operand blocks one
operand is the in-flight ciphertext (LDS-resident under cNoC); HERescale
flushes its output.  ``POLICY`` below is that residency per block.
"""

from __future__ import annotations

from repro.baselines import TABLE7_US
from repro.blocksim.analytical import AnalyticalTimingModel
from repro.blocksim.blocks import BlockCostModel, BlockType
from repro.gme.features import BASELINE, FeatureSet

#: GME measured without LABS (Table 7 footnote).
GME_NO_LABS = FeatureSet(cnoc=True, mod=True, wmac=True)

#: (resident input fraction, resident output) per block under cNoC.
POLICY = {
    BlockType.SCALAR_MULT: (0.0, True),
    BlockType.HE_ADD: (0.5, True),
    BlockType.HE_MULT: (0.0, True),
    BlockType.HE_ROTATE: (0.0, True),
    BlockType.HE_RESCALE: (0.0, False),
}

#: Our BlockType -> the paper's Table 7 column name.
PAPER_NAMES = {
    BlockType.SCALAR_MULT: "CMult",
    BlockType.HE_ADD: "HEAdd",
    BlockType.HE_MULT: "HEMult",
    BlockType.HE_ROTATE: "Rotate",
    BlockType.HE_RESCALE: "Rescale",
}


def run(level: int | None = None) -> dict:
    """Returns {block: {config: (measured_us, paper_us)}} plus speedups."""
    cost_model = BlockCostModel()
    level = cost_model.params.max_level if level is None else level
    base_model = AnalyticalTimingModel(BASELINE)
    gme_model = AnalyticalTimingModel(GME_NO_LABS)
    out = {}
    for block, (resident_frac, resident_out) in POLICY.items():
        cost = cost_model.cost(block, level)
        t_base = base_model.block_timing(cost)
        t_gme = gme_model.block_timing(
            cost, resident_input_bytes=cost.input_bytes * resident_frac,
            resident_output=resident_out)
        name = PAPER_NAMES[block]
        base_us = base_model.to_us(t_base.total_cycles)
        gme_us = gme_model.to_us(t_gme.total_cycles)
        paper = {row: cells[name] for row, cells in TABLE7_US.items()}
        base, gme = paper["Baseline MI100"], paper["GME"]
        out[name] = {
            "baseline": (base_us, base),
            "gme": (gme_us, gme),
            "speedup_vs_baseline": (base_us / gme_us, base / gme),
            "speedup_vs_100x": (paper["100x"] / gme_us, paper["100x"] / gme),
            "speedup_vs_tfhe": (paper["T-FHE"] / gme_us,
                                paper["T-FHE"] / gme),
        }
    return out
