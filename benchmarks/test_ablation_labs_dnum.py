"""Ablations: LABS partitioning quality and the dnum trade-off.

Two design choices this bench isolates:
* LABS's multilevel GPP + SA mapping vs naive scheduling (section 3.3);
* the key-switching digit count dnum, which trades key size against
  ModUp compute (section 2.2).
"""

import numpy as np
import pytest

from repro.blocksim import BlockGraphSimulator
from repro.blocksim.blocks import BlockCostModel
from repro.fhe.params import CkksParameters
from repro.gme import LabsScheduler, MultilevelPartitioner, cut_cost
from repro.gme.features import GME_FULL
from repro.workloads import compile_workload


@pytest.fixture(scope="module")
def boot_graph():
    return compile_workload("boot").graph


@pytest.mark.benchmark(group="ablation-labs")
def test_labs_schedule_benchmark(benchmark, boot_graph):
    scheduler = LabsScheduler(seed=7)
    benchmark.pedantic(scheduler.schedule, args=(boot_graph,),
                       rounds=1, iterations=1)


def test_partitioner_beats_random_on_real_workload(boot_graph):
    """Multilevel GPP cuts far less traffic than random placement."""
    result = MultilevelPartitioner(15, seed=3).partition(boot_graph)
    rng = np.random.default_rng(0)
    random_parts = {n: int(rng.integers(0, 15)) for n in boot_graph.nodes}
    assert result.phi < 0.7 * cut_cost(boot_graph, random_parts)


def test_labs_reduces_workload_time(boot_graph):
    """End-to-end: LABS scheduling beats greedy on full GME."""
    from dataclasses import replace
    with_labs = BlockGraphSimulator(GME_FULL).run(boot_graph, "boot")
    without = BlockGraphSimulator(
        replace(GME_FULL, labs=False)).run(boot_graph, "boot")
    assert with_labs.cycles < without.cycles
    gain = without.cycles / with_labs.cycles
    assert gain > 1.10      # measured ~1.16x (paper claims >1.5x)


def test_labs_reduces_dram_traffic(boot_graph):
    from dataclasses import replace
    with_labs = BlockGraphSimulator(GME_FULL).run(boot_graph, "boot")
    without = BlockGraphSimulator(
        replace(GME_FULL, labs=False)).run(boot_graph, "boot")
    assert with_labs.dram_bytes < without.dram_bytes


@pytest.mark.benchmark(group="ablation-dnum")
def test_dnum_tradeoff(benchmark):
    """Larger dnum -> smaller digits -> less key data but more base
    conversions; the paper picks dnum=3 (Table 3)."""
    def sweep():
        out = {}
        for dnum in (1, 2, 3, 4, 6):
            params = CkksParameters(
                ring_degree=1 << 16, scale_bits=54, prime_bits=54,
                max_level=23, boot_levels=17, dnum=dnum,
                fft_iterations=4,
                moduli=CkksParameters.paper().moduli,
                special_moduli=CkksParameters.paper().special_moduli)
            model = BlockCostModel(params)
            from repro.blocksim.blocks import BlockType
            cost = model.cost(BlockType.HE_MULT, 23)
            out[dnum] = (cost.key_bytes, cost.mod_mul)
        return out
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    key_bytes = [results[d][0] for d in (1, 2, 3, 4, 6)]
    # Key traffic per switch grows with digit count (more digit keys).
    assert key_bytes[0] < key_bytes[-1]
    # dnum=1 needs one huge digit: largest single raised basis.
    muls = [results[d][1] for d in (1, 2, 3, 4, 6)]
    assert muls[0] > 0 and muls[-1] > 0
