"""Measured win of slot batching on the real serving lane.

One plan execution serves every query packed into a batch, so scoring
queries at ``toy`` parameters sixteen to a ciphertext must beat one per
ciphertext in wall-clock QPS.  ``tests/serve/test_simulated.py`` asserts
the simulated lane's exact multiple; this file only times.
"""

import numpy as np
import pytest

from repro.fhe.params import CkksParameters
from repro.serve import ServeConfig, TenantKeyCache, scoring_workload, serve

pytestmark = pytest.mark.bench

PARAMS = CkksParameters.toy()
WIDTH = 16
BATCH = 16
NUM_QUERIES = 24
REPEATS = 3
#: Batched vs sequential wall QPS measures 11x; 2x leaves room for noise.
SERVE_FLOOR = 2.0


def median_wall_qps(workload, queries, keys, batch):
    config = ServeConfig(max_batch_queries=batch, round_decimals=2)
    qps = sorted(serve(workload, queries, PARAMS, key_cache=keys,
                       config=config)[1]["wall_qps"]
                 for _ in range(REPEATS))
    return qps[len(qps) // 2]


def test_batched_serving_beats_sequential():
    workload = scoring_workload(WIDTH)
    keys = TenantKeyCache()
    rng = np.random.default_rng(2023)
    queries = [rng.uniform(0.1, 1.0, WIDTH) for _ in range(NUM_QUERIES)]
    # Warm the shared plan and the tenant's keys so both configurations
    # measure steady-state serving, not one-time setup.
    serve(workload, queries[:1], PARAMS, key_cache=keys,
          config=ServeConfig(max_batch_queries=1))
    batched = median_wall_qps(workload, queries, keys, BATCH)
    sequential = median_wall_qps(workload, queries, keys, 1)
    speedup = batched / sequential
    print(f"\n{NUM_QUERIES} scoring queries at toy: batched {batched:.0f} "
          f"qps, sequential {sequential:.0f} qps ({speedup:.1f}x)")
    assert speedup >= SERVE_FLOOR, f"batched only {speedup:.2f}x sequential"
