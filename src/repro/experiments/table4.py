"""Table 4: cycle counts for the 64-bit modulus instructions."""

from __future__ import annotations

from repro.gpusim.isa import PAPER_TABLE4, PipelineProfile
from repro.gpusim.pipeline import measure_table4


def run(count: int = 10_000) -> dict:
    """Measure all nine cells; returns {profile: {op: (measured, paper)}}."""
    measured = measure_table4(count=count)
    return {
        profile: {op: (measured[profile][op], PAPER_TABLE4[profile][op])
                  for op in ("mod_red", "mod_add", "mod_mul")}
        for profile in PipelineProfile
    }
