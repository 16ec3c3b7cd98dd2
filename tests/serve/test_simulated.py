"""Simulated serving lane: paper-scale throughput modeling.

Nothing here executes crypto — each batch costs its plan's BlockSim
cycles under GME features over the simulator's GPU clock, which is what
makes queries-per-second at N=2^16 a measurable number.  The headline
property is the amortization law: batching B queries into one
ciphertext multiplies service throughput by exactly B (one plan
execution serves the whole batch).
"""

import asyncio

import numpy as np
import pytest

from repro import engine
from repro.fhe.params import CkksParameters
from repro.gme.features import GME_FULL
from repro.serve import PlanServer, ServeConfig

PARAMS = CkksParameters.paper()
WIDTH = PARAMS.num_slots // 32


def drive(server, num_queries):
    async def _go():
        async with server:
            return await asyncio.gather(
                *(server.submit(np.zeros(4))
                  for _ in range(num_queries)))

    results = asyncio.run(_go())
    return results, server.metrics.snapshot()


def simulated(batch, workload="helr"):
    return PlanServer.simulated(
        workload, WIDTH, PARAMS, features=GME_FULL,
        config=ServeConfig(max_batch_queries=batch))


class TestSimulatedServing:
    def test_accepts_workload_name_or_plan(self):
        by_name = PlanServer.simulated("helr", WIDTH, PARAMS)
        by_plan = PlanServer.simulated(engine.compile("helr"), WIDTH)
        # engine.compile memoizes, so both servers model the same plan.
        assert by_name.executor.plan is by_plan.executor.plan

    def test_service_time_comes_from_blocksim(self):
        server = simulated(batch=16)
        plan = server.executor.plan
        expected = plan.simulate(GME_FULL).time_ms() / 1e3
        assert server.executor.seconds_per_execution == expected

    def test_service_qps_math(self):
        _, snapshot = drive(simulated(batch=16), num_queries=32)
        per_exec = simulated(batch=16).executor.seconds_per_execution
        assert snapshot["batches"] == 2
        assert snapshot["service_seconds"] == pytest.approx(2 * per_exec)
        assert snapshot["service_qps"] == pytest.approx(32 / (2 * per_exec))

    def test_batching_multiplies_throughput_by_batch_size(self):
        """Acceptance floor: >=2x batched-vs-sequential at <=50%
        occupancy, for every catalog workload.  The model gives exactly
        batch-size x."""
        for workload in engine.workload_names():
            _, batched = drive(simulated(16, workload), num_queries=32)
            _, sequential = drive(simulated(1, workload), num_queries=32)
            assert batched["mean_occupancy"] <= 0.5, workload
            speedup = batched["service_qps"] / sequential["service_qps"]
            assert speedup == pytest.approx(16.0), workload

    def test_results_are_shape_only(self):
        results, snapshot = drive(simulated(batch=8), num_queries=8)
        assert all(np.array_equal(r, np.zeros(1)) for r in results)
        assert snapshot["served"] == 8
        assert snapshot["mean_occupancy"] == pytest.approx(8 / 32)
