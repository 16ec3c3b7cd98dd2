"""Deterministic fault injection: wrapper semantics and chaos runs.

Three tiers: :func:`window_checksum` / :class:`FaultPlan` properties,
wrapper-level injection against a stub executor, and full-server chaos
— ending in the acceptance scenario: a seeded 32-query
multi-tenant run over the *real* executor with 10% transient faults and
one poisoned tenant, where only the poisoned query fails (typed), every
co-rider is bit-identical to a fault-free run at ``round_decimals``,
and the poisoned tenant's breaker ends open.
"""

import numpy as np
import pytest

from repro.fhe.packing import SlotLayout
from repro.fhe.params import CkksParameters
from repro.serve import (BreakerState, CorruptedResult,
                         FaultInjectingExecutor, FaultPlan, PlanServer,
                         PoisonedQueryError, Query, RealExecutor,
                         ResilienceConfig, RetryPolicy, ServeConfig,
                         TenantKeyCache, TransientFault,
                         scoring_workload, serve, window_checksum)
from repro.serve.batcher import Batch
from repro.serve.faults import InjectedFault

LAYOUT = SlotLayout(num_slots=512, width=16)


class EchoStub:
    """Crypto-free executor: result = first value of each query."""

    def __init__(self):
        self.layout = LAYOUT
        self.calls = 0

    def run(self, batch):
        self.calls += 1
        return ([np.asarray(q.values[:1], dtype=float).copy()
                 for q in batch.queries], 1e-4)


def make_batch(values, tenant="t0"):
    return Batch(tenant=tenant, layout=LAYOUT,
                 queries=[Query(tenant, np.full(16, v))
                          for v in values])


class TestWindowChecksum:
    def test_stable_across_dtype_and_negative_zero(self):
        a = np.array([1.25, -0.0, 3.5])
        b = np.array([1.25, 0.0, 3.5], dtype=np.float32)
        assert window_checksum(a) == window_checksum(b)

    def test_sub_precision_noise_is_tolerated_flips_are_not(self):
        base = np.array([1.234567, 8.9])
        noisy = base + 1e-9
        flipped = base.copy()
        flipped[1] = -flipped[1] - 1.0
        assert window_checksum(base, 6) == window_checksum(noisy, 6)
        assert window_checksum(base, 6) != window_checksum(flipped, 6)


class TestFaultPlan:
    def test_poisons_by_payload_and_predicate(self):
        payload = np.full(16, 7.0)
        plan = FaultPlan(poisoned_payloads=(payload,))
        assert plan.poisons(Query("t", payload.copy()))
        assert not plan.poisons(Query("t", np.full(16, 8.0)))
        pred = FaultPlan(is_poisoned=lambda q: q.tenant == "evil")
        assert pred.poisons(Query("evil", payload))
        assert not pred.poisons(Query("good", payload))


class TestWrapperInjection:
    def test_poisoned_batch_raises_before_inner_runs(self):
        inner = EchoStub()
        plan = FaultPlan(poisoned_payloads=(np.full(16, 2.0),))
        wrapped = FaultInjectingExecutor(inner, plan)
        with pytest.raises(InjectedFault, match="poisoned"):
            wrapped.run(make_batch([1.0, 2.0]))
        assert inner.calls == 0                 # never executed
        assert wrapped.injected["poisoned"] == 1
        # InjectedFault is persistent: not retryable.
        assert not issubclass(InjectedFault, TransientFault)

    def test_certain_transient_rate_always_raises_transient(self):
        inner = EchoStub()
        wrapped = FaultInjectingExecutor(
            inner, FaultPlan(transient_rate=1.0))
        for _ in range(3):
            with pytest.raises(TransientFault, match="injected"):
                wrapped.run(make_batch([1.0]))
        assert inner.calls == 0
        assert wrapped.injected["transient"] == 3

    def test_certain_corruption_is_caught_by_checksum(self):
        wrapped = FaultInjectingExecutor(
            EchoStub(), FaultPlan(corrupt_rate=1.0))
        with pytest.raises(CorruptedResult, match="checksum"):
            wrapped.run(make_batch([1.0, 2.0, 3.0]))
        assert wrapped.injected["corrupt"] == 1
        # Corruption is retryable by design.
        assert issubclass(CorruptedResult, TransientFault)

    def test_latency_spike_inflates_service_time(self):
        wrapped = FaultInjectingExecutor(
            EchoStub(), FaultPlan(latency_spike_rate=1.0,
                                  latency_spike_s=0.01))
        results, service_s = wrapped.run(make_batch([4.0]))
        assert results[0][0] == 4.0             # results untouched
        assert service_s >= 0.01
        assert wrapped.injected["latency_spike"] == 1

    def test_same_seed_same_fault_stream(self):
        plan = FaultPlan(seed=42, transient_rate=0.3)

        def stream():
            wrapped = FaultInjectingExecutor(EchoStub(), plan)
            outcomes = []
            for i in range(30):
                try:
                    wrapped.run(make_batch([float(i)]))
                    outcomes.append("ok")
                except TransientFault:
                    outcomes.append("transient")
            return outcomes

        first, second = stream(), stream()
        assert first == second
        assert "transient" in first and "ok" in first


class TestServerChaosStub:
    """Chaos over the stub: recovery behaviors without crypto cost."""

    def run_chaos(self, plan, values, *, attempts=6, tenants=None):
        wrapped = FaultInjectingExecutor(EchoStub(), plan)
        server = PlanServer(wrapped, ServeConfig(
            max_batch_queries=4, workers=1,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=attempts,
                                  backoff_base_s=0.001))))
        queries = [np.full(16, v) for v in values]
        results, snapshot = serve(None, queries, tenants=tenants,
                                  server=server,
                                  return_exceptions=True)
        return wrapped, server, results, snapshot

    def test_transient_storm_retries_to_full_goodput(self):
        wrapped, _, results, snapshot = self.run_chaos(
            FaultPlan(seed=7, transient_rate=0.2),
            [float(i) for i in range(12)])
        for i, r in enumerate(results):
            assert r[0] == float(i)
        assert snapshot["goodput"] == 1.0
        assert snapshot["failures"] == 0
        # The seeded storm actually fired and was retried away.
        assert wrapped.injected["transient"] >= 1
        assert snapshot["retries"] == wrapped.injected["transient"]

    def test_corruption_never_reaches_a_caller(self):
        wrapped, _, results, snapshot = self.run_chaos(
            FaultPlan(seed=3, corrupt_rate=0.3),
            [float(i) for i in range(12)])
        for i, r in enumerate(results):
            assert r[0] == float(i)             # clean values only
        assert wrapped.injected["corrupt"] >= 1
        assert snapshot["goodput"] == 1.0


class TestAcceptanceScenario:
    """Acceptance: 32 queries, 4 tenants, 10% transients, one poisoned
    query — blast radius of exactly one, bit-identical co-riders,
    poisoned tenant's breaker open at the end, under every seed."""

    DECIMALS = 2
    WIDTH = 16
    POISON_IDX = 6                              # 6 % 4 == 2 -> tenant t2
    SEEDS = (1123, 11, 23, 42)

    @pytest.fixture(scope="class")
    def params(self):
        return CkksParameters.toy()

    @pytest.fixture(scope="class")
    def workload(self):
        return scoring_workload(self.WIDTH)

    @pytest.fixture(scope="class")
    def keys(self):
        return TenantKeyCache()

    @pytest.fixture(scope="class")
    def queries(self):
        weights = 0.5 + np.arange(self.WIDTH) / (2.0 * self.WIDTH)
        step = 10.0 ** -self.DECIMALS
        rng = np.random.default_rng(2023)
        out = []
        while len(out) < 32:
            q = rng.uniform(0.1, 1.0, self.WIDTH)
            exact = float(np.dot(weights, q)) ** 2
            # Boundary guard (as in TestQuantizedPartitionInvariance):
            # keep scores far enough from a rounding boundary that toy
            # CKKS noise cannot flip the quantized value.
            frac = (exact / step) % 1.0
            if abs(frac - 0.5) * step > 5e-4:
                out.append(q)
        return out

    @pytest.fixture(scope="class")
    def tenants(self):
        return [f"t{i % 4}" for i in range(32)]

    @pytest.fixture(scope="class")
    def reference(self, workload, params, keys, queries, tenants):
        """Fault-free quantized run (same key cache, same tenants)."""
        results, snapshot = serve(
            workload, queries, params, tenants=tenants,
            config=ServeConfig(max_batch_queries=8, workers=1,
                               round_decimals=self.DECIMALS),
            key_cache=keys)
        assert snapshot["served"] == 32
        return results

    def test_seeded_chaos_isolates_the_poison(
            self, workload, params, keys, queries, tenants, reference):
        for seed in self.SEEDS:
            plan = FaultPlan(seed=seed, transient_rate=0.1,
                             poisoned_payloads=(queries[self.POISON_IDX],))
            executor = FaultInjectingExecutor(
                RealExecutor(workload, params, key_cache=keys,
                             round_decimals=self.DECIMALS),
                plan, checksum_decimals=self.DECIMALS)
            server = PlanServer(executor, ServeConfig(
                max_batch_queries=8, workers=1,
                round_decimals=self.DECIMALS,
                resilience=ResilienceConfig(
                    retry=RetryPolicy(max_attempts=6,
                                      backoff_base_s=0.001),
                    breaker_failures=1)))

            results, snapshot = serve(None, queries, tenants=tenants,
                                      server=server,
                                      return_exceptions=True)

            # Blast radius is exactly the poisoned query, typed + chained.
            poisoned = results[self.POISON_IDX]
            assert isinstance(poisoned, PoisonedQueryError), seed
            assert isinstance(poisoned.__cause__, InjectedFault), seed
            for i, r in enumerate(results):
                if i == self.POISON_IDX:
                    continue
                # Co-riders are served bit-identical to the fault-free
                # run — under transient retries AND the bisection repack.
                assert np.array_equal(r, reference[i]), (seed, i)

            # The poisoned tenant's breaker opened; others stayed closed.
            assert server.breaker("t2").state is BreakerState.OPEN, seed
            for tenant in ("t0", "t1", "t3"):
                assert server.breaker(tenant).state \
                    is BreakerState.CLOSED, (seed, tenant)

            assert snapshot["served"] == 31, seed
            assert snapshot["failures"] == 1, seed
            assert snapshot["failed_queries"] == 1, seed
            # Isolating 1 of 8 co-riders takes exactly log2(8) bisections.
            assert snapshot["bisections"] == 3, seed
            assert snapshot["goodput"] == pytest.approx(31 / 32), seed
            assert executor.injected["poisoned"] >= 1, seed
