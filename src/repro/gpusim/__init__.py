"""Static model of the AMD CDNA MI100 that the timing models read.

Four pieces: the MI100 hardware configuration (:mod:`.config`, paper
Table 5), the ISA issue-occupancy and latency tables per pipeline
profile (:mod:`.isa`), the scoreboard pipeline that measures paper
Table 4 from those tables (:mod:`.pipeline`), and the LDS bank-conflict
model it samples (:mod:`.lds`).  Cycle counts of blocks and workloads
come from :mod:`repro.blocksim`, which consumes the configuration and
the issue tables.
"""

from .config import GpuConfig, mi100
from .isa import (ISSUE_CYCLES, LATENCY_SEQUENCES, PAPER_TABLE4, MicroOp,
                  PipelineProfile)
from .lds import LdsModel
from .pipeline import ScoreboardPipeline, measure_table4

__all__ = [
    "GpuConfig", "ISSUE_CYCLES", "LATENCY_SEQUENCES", "LdsModel",
    "MicroOp", "PAPER_TABLE4", "PipelineProfile", "ScoreboardPipeline",
    "measure_table4", "mi100",
]
