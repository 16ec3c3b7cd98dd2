"""BlockSim: the paper's block-level DAG simulator (section 4.1).

Derives per-block op/byte counts from the CKKS algebra, times them under a
GME feature set with an analytical roofline, and simulates whole workload
DAGs with global-LDS residency and LABS scheduling.
"""

from .analytical import AnalyticalTimingModel, BlockTiming
from .blocks import BlockCost, BlockCostModel, BlockInstance, BlockType
from .metrics import WorkloadMetrics, amortized_mult_time_per_slot_ns
from .simulator import BlockGraphSimulator, BlockTable, make_block_node

__all__ = [
    "AnalyticalTimingModel", "BlockCost", "BlockCostModel", "BlockInstance",
    "BlockGraphSimulator", "BlockTable", "BlockTiming", "BlockType",
    "WorkloadMetrics",
    "amortized_mult_time_per_slot_ns", "make_block_node",
]
