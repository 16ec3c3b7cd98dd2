"""The six workloads, their generated inputs and their correctness checks.

Five serve queries through a :class:`~repro.serve.PlanServer` in a closed
loop (:mod:`bench.loadgen`); ``offline_paper`` walks the compile →
simulate → profile → artifact path at paper parameters.  Why each one is
here is its ``why`` — the same line ``BENCHMARK.json`` carries.

``--seed`` picks query payloads, which client sends which, and the order
tenants are visited in.  The served programs see those inputs, never the
seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from repro import engine
from repro.fhe.packing import SlotLayout
from repro.fhe.params import CkksParameters
from repro.gme.features import GME_FULL
from repro.serve import (Batch, PlanServer, Query, ServeConfig,
                         ServedWorkload, TenantKeyCache,
                         clear_serve_caches, scoring_workload)

from .probes import (SPAN_BACKEND, SpanSimulatedExecutor, StagedExecutor)

#: Slot-window width of every served program.
WIDTH = 16

#: Distinct payload vectors a run draws its queries from.
POOL = 256

#: Picks generated per client; a client that outlives them cycles.
PICKS = 4096

#: Served results are quantized to this many decimals …
ROUND_DECIMALS = 2

#: … and payloads are kept only if every exact result lies at least this
#: far from a rounding boundary: ten times the worst CKKS error seen on
#: the noisiest lane (1.4e-4, scoring at ``toy``).  Noise then never tips
#: a result over a boundary, so a served result equals the rounded
#: plaintext oracle and is the same bits at any batch size — on these
#: inputs no operation fails.
QUANT_MARGIN = 1.5e-3

#: A served result further than this from the rounded oracle is wrong
#: (half a quantization step: the next representable answer is a miss).
ORACLE_TOLERANCE = 0.5 * 10.0 ** -ROUND_DECIMALS


def pw54() -> CkksParameters:
    """The 54-bit paper word on a toy ring — the preset
    ``benchmarks/export_modmath_bench.py`` already uses."""
    return CkksParameters._build(ring_degree=1 << 10, scale_bits=50,
                                 prime_bits=54, max_level=5, boot_levels=2,
                                 dnum=2, fft_iterations=1)


# ---------------------------------------------------------------------------
# served programs and their plaintext oracles
# ---------------------------------------------------------------------------

#: The ramp ``scoring_workload`` defaults to, handed to it explicitly so
#: program and oracle share one array.
_SCORING_WEIGHTS = 0.5 + np.arange(WIDTH) / (2.0 * WIDTH)


def scoring_program() -> ServedWorkload:
    return scoring_workload(WIDTH, weights=_SCORING_WEIGHTS)


def scoring_oracle(pool: np.ndarray) -> np.ndarray:
    """``square(sum_j w_j x_j)`` per payload, one result slot."""
    return ((pool @ _SCORING_WEIGHTS) ** 2)[:, None]


_AFFINE = tuple(np.linspace(lo, hi, WIDTH) for lo, hi in
                ((0.5, 1.0), (-0.5, 0.5), (1.0, 0.25), (0.25, -0.25)))


def affine_oracle(pool: np.ndarray) -> np.ndarray:
    a, b, c, d = _AFFINE
    return (pool * a + b) * c + d


def affine_workload() -> ServedWorkload:
    """``((x*a + b)*c + d)`` slot-wise: two plaintext multiplies with
    rescale and two plaintext adds — no rotation, no key switch."""

    def build(layout: SlotLayout):
        a, b, c, d = (np.tile(v, layout.capacity) for v in _AFFINE)

        def affine(ev, ct):
            encode = ev.encoder.encode
            y = ev.poly_mult(ct, encode(a), rescale=True)
            y = ev.poly_add(y, encode(b, y.scale))
            y = ev.poly_mult(y, encode(c), rescale=True)
            return ev.poly_add(y, encode(d, y.scale))

        return affine

    return ServedWorkload(name=f"affine-w{WIDTH}", width=WIDTH,
                          build_program=build, result_slots=WIDTH)


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServeCase:
    """One serving workload: what is deployed and who calls it."""

    name: str
    why: str
    params: Callable[[], CkksParameters]
    #: The deployed program, or ``None`` for the simulated executor.
    program: Callable[[], ServedWorkload] | None
    oracle: Callable[[np.ndarray], np.ndarray] | None
    #: (tenants, closed-loop clients per tenant) per client group.
    groups: tuple[tuple[int, int], ...]
    #: ``ServeConfig.max_batch_queries`` — the clients of one tenant.
    max_batch: int
    #: >0: all clients move together round-robin over this many tenants.
    churn_tenants: int = 0
    max_resident: int = 8

    @property
    def real(self) -> bool:
        return self.program is not None

    def tenants(self) -> list[str]:
        count = self.churn_tenants or sum(t for t, _ in self.groups)
        return [f"tenant-{i:02d}" for i in range(count)]

    def resident_tenants(self) -> list[str]:
        """Tenants whose keys are generated (and warmed) in set-up."""
        return self.tenants()[:self.max_resident]

    def clients(self) -> int:
        return sum(t * c for t, c in self.groups)


@dataclass(frozen=True)
class OfflineCase:
    name: str
    why: str


SERVE_CASES = (
    ServeCase(
        "score_toy_1t",
        "Reference real lane: plan.execute is ~90% of a batch, nearly all "
        "key switching and NTTs on the int64 kernel tier; 1 tenant x 16 "
        "closed-loop clients.",
        CkksParameters.toy, scoring_program,
        scoring_oracle, ((1, 16),), 16),
    ServeCase(
        "score_pw54_4t",
        "Paper word size (54-bit dword Barrett/Shoup/Montgomery kernels, "
        "larger mod_up share) with 4 tenants x 8 clients contending for "
        "the 2 default worker threads.",
        pw54, scoring_program,
        scoring_oracle, ((4, 8),), 8),
    ServeCase(
        "affine_toy_1t",
        "No key switch at all: encrypt/decrypt, plaintext payload ops and "
        "rescale dominate; must not move under key-switch or rotation "
        "NTT-count changes.",
        CkksParameters.toy, affine_workload,
        affine_oracle, ((1, 16),), 16),
    ServeCase(
        "score_toy_churn",
        "16 clients walk 12 tenants round-robin over a 4-tenant key "
        "cache: every batch is a key-cache miss (keygen + eviction) "
        "instead of a hit.",
        CkksParameters.toy, scoring_program,
        scoring_oracle, ((1, 16),), 16, churn_tenants=12, max_resident=4),
    ServeCase(
        "sim_paper_mix",
        "Simulated executor returns instantly, so admission, batcher, "
        "queue, to_thread and metrics do all the work: 8 hot tenants x 8 "
        "clients (size-closed) + 8 lone clients (timer-closed).",
        CkksParameters.paper, None, None, ((8, 8), (8, 1)), 8,
        max_resident=16),
)

OFFLINE_CASE = OfflineCase(
    "offline_paper",
    "compile -> lint -> simulate x5 -> profile -> save -> load -> simulate "
    "for boot/helr/resnet at paper parameters, then table8: isolates "
    "trace/blocksim/gme/artifact; simulated cycles are exact.")

CASES = {case.name: case for case in SERVE_CASES + (OFFLINE_CASE,)}


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Inputs:
    """Everything a run derives from ``--seed``."""

    pool: np.ndarray            # (POOL, WIDTH) query payloads
    expected: np.ndarray | None  # oracle per pool row, rounded
    picks: np.ndarray           # (clients, PICKS) pool rows per client
    tenant_order: np.ndarray    # churn: tenant indices in visiting order
    identity_sample: np.ndarray  # uniform draws picking re-served queries


def _payloads(rng: np.random.Generator, oracle) -> np.ndarray:
    """POOL payloads in [0.1, 1)^WIDTH whose exact results all clear the
    rounding boundaries by QUANT_MARGIN."""
    kept, count = [], 0
    while count < POOL:
        drawn = rng.uniform(0.1, 1.0, (64 * POOL, WIDTH))
        if oracle is not None:
            steps = oracle(drawn) * 10.0 ** ROUND_DECIMALS
            to_boundary = np.abs(steps - np.floor(steps) - 0.5)
            drawn = drawn[(to_boundary >= QUANT_MARGIN
                           * 10.0 ** ROUND_DECIMALS).all(axis=1)]
        kept.append(drawn)
        count += len(drawn)
    return np.concatenate(kept)[:POOL]


def make_inputs(case: ServeCase, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    pool = _payloads(rng, case.oracle)
    expected = None
    if case.oracle is not None:
        expected = np.round(case.oracle(pool), ROUND_DECIMALS)
    picks = rng.integers(0, POOL, (case.clients(), PICKS))
    # Churn visits the tenants set-up left out first, then the resident
    # ones (evicted by then), and cycles: every visit is a miss from the
    # first batch on, whatever the seed.
    resident = len(case.resident_tenants())
    order = np.concatenate([
        resident + rng.permutation(max(case.churn_tenants - resident, 0)),
        rng.permutation(resident)]) if case.churn_tenants else np.arange(0)
    return Inputs(pool=pool, expected=expected, picks=picks,
                  tenant_order=order,
                  identity_sample=rng.uniform(0.0, 1.0, 8))


# ---------------------------------------------------------------------------
# cold set-up
# ---------------------------------------------------------------------------

@dataclass
class Rig:
    """A deployed server, ready for a window."""

    case: ServeCase
    params: CkksParameters
    server: PlanServer
    keys: TenantKeyCache | None
    workload: ServedWorkload | None
    #: Seconds per set-up phase (``plan`` includes the strict lint for
    #: served programs, which compile and lint in one call).
    phases: dict[str, float]

    @property
    def executor(self):
        return self.server.executor


def serve_config(case: ServeCase, max_batch: int | None = None
                 ) -> ServeConfig:
    return ServeConfig(max_batch_queries=max_batch or case.max_batch,
                       round_decimals=ROUND_DECIMALS)


def cold_setup(case: ServeCase, recorder=None) -> Rig:
    """Parameters → compiled, strictly linted plan → resident tenants'
    keys → one warm batch per tenant, from empty caches.

    With ``recorder`` the same deployment is built on the span probes.
    """
    clear_serve_caches()
    engine.clear_plan_cache()
    phases: dict[str, float] = {}
    mark = perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = perf_counter()
        phases[name] = now - mark
        mark = now

    params = case.params()
    if recorder is not None and case.real:
        params = dataclasses.replace(params, backend=SPAN_BACKEND)
    lap("params")
    config = serve_config(case)
    keys = workload = None
    if case.real:
        workload = case.program()
        keys = TenantKeyCache(max_resident=case.max_resident)
        if recorder is None:
            server = PlanServer.real(workload, params, config=config,
                                     key_cache=keys)
        else:
            server = PlanServer(
                StagedExecutor(workload, params, key_cache=keys,
                               round_decimals=ROUND_DECIMALS,
                               recorder=recorder), config)
        lap("plan")
    else:
        plan = engine.compile("helr", params)
        lap("plan")
        plan.lint().raise_for_errors()
        lap("lint")
        plan.simulate(GME_FULL)
        lap("simulate")
        width = params.num_slots // 32
        if recorder is None:
            server = PlanServer.simulated(plan, width, features=GME_FULL,
                                          config=config)
        else:
            server = PlanServer(SpanSimulatedExecutor(
                plan, SlotLayout.for_params(params, width),
                features=GME_FULL, recorder=recorder), config)
        lap("server")
    warm = np.full(WIDTH, 0.5)
    for tenant in case.resident_tenants():
        server.executor.run(Batch(
            tenant=tenant, layout=server.layout,
            queries=[Query(tenant=tenant, values=warm)
                     for _ in range(case.max_batch)]))
    lap("tenants")
    return Rig(case, params, server, keys, workload, phases)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def oracle_misses(inputs: Inputs, window, rows) -> int:
    """Replies (rows of ``window``) that miss the plaintext oracle."""
    if not len(rows):
        return 0
    got = np.stack([window.results[row] for row in rows])
    want = inputs.expected[np.asarray(window.pick)[rows]]
    return int((np.abs(got - want) > ORACLE_TOLERANCE).any(axis=1).sum())
