"""Process-wide shared artifacts: compiled plans and tenant key material.

HEAAN-profiling studies (PAPERS.md) show which per-query costs amortize
across requests: plan compilation, NTT tables, and key material dominate
setup but are query-independent.  The engine already memoizes *symbolic*
plans per process; this module adds the two service-level caches:

* :func:`shared_plan` — served plans (which ``engine.compile`` does
  not memoize, because they embed payloads) keyed by (workload, params,
  width, artifact), recorded once per process on the symbolic evaluator
  with a real encoder — no keys, encryption or transforms — or loaded
  from a saved ``.rpa`` artifact (:mod:`repro.artifact`), and then
  executed by every worker against every tenant context;
* :class:`TenantKeyCache` — an LRU of per-tenant
  :class:`~repro.fhe.CkksContext` objects (secret and switching
  keys).  ``max_resident`` is the service-level analogue of the LABS
  key-residency window (``FeatureSet.key_residency_window``): it bounds
  how many tenants' switching-key sets stay resident; an evicted tenant
  pays keygen again on return.  A tenant holds the keys its plans name,
  each drawn at its plan's highest key-switch level: width-16 scoring
  holds six one-digit rotation keys over 7 limbs at ``toy``, 0.66 MiB of
  int64 residues (0.56 MiB at the 54-bit word, 6 limbs), plus its
  secret.

What a context needs that does *not* depend on the tenant — the NTT
tables of its moduli — is not in either cache: :mod:`repro.fhe.ntt`
builds those once per process and every tenant context shares them
(:func:`clear_serve_caches` drops them along with the plans).
"""

from __future__ import annotations

import threading
import zlib

from repro.fhe import CkksContext
from repro.fhe.ntt import clear_table_cache
from repro.fhe.params import CkksParameters

#: Seed offset so tenant streams never collide with test seeds.
_TENANT_SEED_BASE = 0x5E12


def tenant_seed(tenant: str) -> int:
    """Deterministic per-tenant key seed (stable across processes)."""
    return _TENANT_SEED_BASE + zlib.crc32(tenant.encode("utf-8"))


class TenantKeyCache:
    """LRU cache of per-tenant contexts (keys + encoder + evaluator).

    Keys are per tenant and live here; the NTT tables under them are
    process-wide (:func:`repro.fhe.ntt.ntt_context`), so a miss pays
    key generation, not table construction.
    """

    def __init__(self, max_resident: int = 8,
                 hamming_weight: int = 64):
        if max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        self.max_resident = max_resident
        self.hamming_weight = hamming_weight
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Insertion-ordered: first key is the least recently used.
        self._resident: dict[tuple[str, CkksParameters], CkksContext] = {}
        self._lock = threading.Lock()

    def get(self, tenant: str, params: CkksParameters) -> CkksContext:
        """The tenant's context, generating keys on first use."""
        key = (tenant, params)
        with self._lock:
            ctx = self._resident.get(key)
            if ctx is not None:
                self.hits += 1
                self._resident.pop(key)
                self._resident[key] = ctx       # refresh recency
                return ctx
            self.misses += 1
            ctx = CkksContext(params, seed=tenant_seed(tenant),
                              hamming_weight=self.hamming_weight)
            self._resident[key] = ctx
            while len(self._resident) > self.max_resident:
                self._resident.pop(next(iter(self._resident)))
                self.evictions += 1
            return ctx

    @property
    def resident_tenants(self) -> list[str]:
        with self._lock:
            return [tenant for tenant, _ in self._resident]

    def stats(self) -> dict:
        # Counters are written under self._lock in get(); read them
        # under the same lock so concurrent workers can't tear a read.
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "resident": len(self._resident),
                    "max_resident": self.max_resident}


#: (workload name, params, width, artifact path) -> served plan.
_PLAN_CACHE: dict = {}
_PLAN_LOCK = threading.Lock()


def _load_artifact_plan(workload, params: CkksParameters,
                        artifact: str):
    """Load (and strictly vet) a served plan from an ``.rpa`` artifact."""
    from repro.artifact import load_plan
    plan = load_plan(artifact)
    expected = f"serve/{workload.name}"
    if plan.name != expected:
        raise ValueError(
            f"{artifact}: artifact plan {plan.name!r} does not serve "
            f"workload {workload.name!r} (expected {expected!r})")
    if plan.params != params:
        raise ValueError(
            f"{artifact}: artifact parameters do not match the "
            "requested serving parameters")
    # A loaded plan is replayed for many tenants per batch, exactly like
    # a fresh compile: lint just as strictly before deploying it.
    plan.lint_report = plan.lint()
    plan.lint_report.raise_for_errors()
    return plan


def shared_plan(workload, params: CkksParameters,
                artifact: str | None = None):
    """The process-wide plan for one served workload.

    Recorded once, symbolically with a real encoder
    (:meth:`~repro.serve.workloads.ServedWorkload.compile`), it holds
    payloads and no key; every worker replays it for every tenant.

    With ``artifact`` set, the plan is loaded from a saved ``.rpa``
    container (:func:`repro.artifact.load_plan`) instead of compiled —
    the deploy-from-artifact path.  The artifact must carry plaintext
    payloads, serve this workload at these parameters, and pass the
    same strict lint a fresh compile does; its header fingerprint is
    surfaced on :attr:`~repro.serve.metrics.ServeMetrics.plan_fingerprint`.
    """
    key = (workload.name, params, workload.width, artifact)
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is None:
            if artifact is not None:
                plan = _load_artifact_plan(workload, params, artifact)
            else:
                plan = workload.compile(params)
            _PLAN_CACHE[key] = plan
        return plan


def clear_serve_caches() -> None:
    """Drop everything tenants share — compiled plans and the
    process-wide NTT tables — so the next deployment starts cold (tests /
    benchmarks).  Tenant keys live in each :class:`TenantKeyCache`."""
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()
    clear_table_cache()
