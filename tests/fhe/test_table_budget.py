"""How often a process builds NTT tables: once per modulus, not per tenant.

Twiddle tables are a pure function of ``(q, N)``.  Every ``CkksContext``
used to own a backend that rebuilt them — ten ``NttContext`` builds and
the stacks over them per ``toy`` tenant, on every key-cache miss.  They
now live in one process-wide cache (``repro.fhe.ntt._TableCache``):
read-only, built under a lock, shared by every backend instance and
worker thread, dropped by ``clear_serve_caches()``.  Its bound, as its
docstring states it: ``max_bytes`` (512 MB) over all entries, where a
``(q, N)`` entry is 16 * N bytes and a stack owns 80 KB per limb on the
int64 tier at N = 2**10, 224 KB on the double-word tier (views own
nothing); least recently used entries go first.

The counts below are exact.  Tables are built lazily, so each context
is driven through one encrypt, one rotation and one squaring before it
is counted.  Contexts name their backend, so the counts hold under
``REPRO_FHE_BACKEND`` too; the key cache takes whichever is configured.
"""

import sys
import threading

import numpy as np
import pytest

from repro.fhe import CkksContext, CkksParameters
from repro.fhe import ntt, primes
from repro.fhe.ntt import BatchedNttContext, NttContext, _TableCache
from repro.serve import TenantKeyCache, clear_serve_caches
from test_keyswitch import ct_equal
from pins import PRESETS

TOY = CkksParameters.toy()
MODULI = tuple(TOY.moduli) + tuple(TOY.special_moduli)
#: The 54-bit paper word on the same ring (``bench.workloads.pw54``).
PW54 = PRESETS["pw54"]()
PW54_MODULI = tuple(PW54.moduli) + tuple(PW54.special_moduli)
VALUES = [1.0, -2.0, 3.5]


@pytest.fixture(autouse=True)
def cold_tables():
    clear_serve_caches()
    yield
    clear_serve_caches()


class Builds:
    """Counts table constructions: per modulus, and per owning stack."""

    def __init__(self, monkeypatch):
        self.moduli: list[int] = []
        self.stacks: list[tuple[int, ...]] = []
        per_limb, stack = NttContext.__init__, BatchedNttContext.__init__

        def counting_per_limb(ctx, q, n):
            self.moduli.append(q)
            per_limb(ctx, q, n)

        def counting_stack(ctx, moduli, n):
            self.stacks.append(tuple(moduli))
            stack(ctx, moduli, n)

        monkeypatch.setattr(NttContext, "__init__", counting_per_limb)
        monkeypatch.setattr(BatchedNttContext, "__init__", counting_stack)

    def take(self) -> tuple[int, int]:
        counts = len(self.moduli), len(self.stacks)
        self.moduli.clear()
        self.stacks.clear()
        return counts


def context(seed: int, backend: str = "stacked",
            params: CkksParameters = TOY) -> CkksContext:
    return CkksContext(params, seed=seed, backend=backend)


def drive(ctx: CkksContext):
    ct = ctx.encrypt(VALUES)
    return ctx.evaluator.he_rotate(ct, 1), ctx.evaluator.he_square(ct)


def per_modulus_tables(ctx: CkksContext) -> list:
    backend = ctx.keygen.context.backend
    return [backend.ntt_context(q) for q in MODULI]


def shared_tables(ctx: CkksContext) -> list:
    return [ctx.keygen.context.backend.batched_ntt(MODULI)] \
        + per_modulus_tables(ctx)


def assert_built_once_per_modulus(monkeypatch, params) -> None:
    moduli = tuple(params.moduli) + tuple(params.special_moduli)
    builds = Builds(monkeypatch)
    drive(context(0, params=params))
    assert sorted(builds.moduli) == sorted(moduli)
    per_limb, stacks = builds.take()
    assert per_limb == len(moduli) == 10 and 1 <= stacks <= params.num_limbs
    for seed in range(1, 5):
        drive(context(seed, params=params))
        assert builds.take() == (0, 0)


def test_tables_are_built_once_per_modulus_not_once_per_context(monkeypatch):
    assert_built_once_per_modulus(monkeypatch, TOY)


def test_dword_tables_are_built_once_per_modulus_not_once_per_context(
        monkeypatch):
    assert_built_once_per_modulus(monkeypatch, PW54)


def test_reference_and_stacked_backends_share_the_per_modulus_tables(
        monkeypatch):
    builds = Builds(monkeypatch)
    stacked, reference = context(1), context(1, "reference")
    assert ct_equal(drive(stacked)[0], drive(reference)[0])
    assert builds.take()[0] == len(MODULI)
    assert all(a is b for a, b in zip(per_modulus_tables(stacked),
                                      per_modulus_tables(reference)))


def assert_churn_builds_for_the_first_tenant_only(monkeypatch, params):
    builds = Builds(monkeypatch)
    cache = TenantKeyCache(max_resident=2)
    for tenant in range(6):
        drive(cache.get(f"tenant-{tenant}", params))
        per_limb, stacks = builds.take()
        assert per_limb == (10 if tenant == 0 else 0)
        assert tenant == 0 or stacks == 0
    assert cache.stats()["evictions"] == 4


def test_key_cache_churn_builds_tables_for_the_first_tenant_only(
        monkeypatch):
    assert_churn_builds_for_the_first_tenant_only(monkeypatch, TOY)


def test_dword_key_cache_churn_builds_tables_for_the_first_tenant_only(
        monkeypatch):
    assert_churn_builds_for_the_first_tenant_only(monkeypatch, PW54)


def test_a_cold_dword_table_build_factors_in_few_steps(monkeypatch):
    """Each modulus's tables start from its primitive root, and finding
    that factors q - 1.  A cold ``pw54`` build factors its ten moduli in
    542 steps: 120 trial divisions (the twelve small primes, each
    modulus) and 422 steps of Brent's rho walk.  Trial division alone,
    the root finder before, tried 1 029 405 divisors for the same ten.
    """
    steps, factorizations = [], []
    step, factorize = primes._rho_step, primes._factorize

    def counting_step(x, c, n):
        steps.append(n)
        return step(x, c, n)

    def counting_factorize(n):
        factorizations.append(n)
        return factorize(n)

    monkeypatch.setattr(primes, "_rho_step", counting_step)
    monkeypatch.setattr(primes, "_factorize", counting_factorize)
    drive(context(0, params=PW54))
    assert sorted(factorizations) == sorted(q - 1 for q in PW54_MODULI)
    trial = len(factorizations) * len(primes._SMALL_PRIMES)
    assert trial + len(steps) <= 542


def test_clear_serve_caches_makes_the_next_context_cold(monkeypatch):
    builds = Builds(monkeypatch)
    drive(context(0))
    cold = builds.take()
    before = shared_tables(context(1))
    assert builds.take() == (0, 0)
    clear_serve_caches()
    assert ntt._TABLE_CACHE.nbytes == 0
    ctx = context(2)
    drive(ctx)
    assert builds.take() == cold
    assert not any(a is b for a, b in zip(shared_tables(ctx), before))


def table_arrays(tables) -> list[np.ndarray]:
    """Every array a context holds, nested tuples of tables included."""
    def arrays(value):
        if isinstance(value, tuple):
            return [a for item in value for a in arrays(item)]
        return [value] if isinstance(value, np.ndarray) else []

    return [a for value in vars(tables).values() for a in arrays(value)]


def assert_every_shared_table_is_read_only(params, stack_arrays) -> None:
    moduli = tuple(params.moduli) + tuple(params.special_moduli)
    ctx = context(0, params=params)
    drive(ctx)
    backend = ctx.keygen.context.backend
    stack, view = backend.batched_ntt(moduli), backend.batched_ntt(moduli[2:5])
    assert view.owner is stack and view.nbytes == 0
    assert len(table_arrays(stack)) == len(table_arrays(view)) == stack_arrays
    assert stack.nbytes == sum(a.nbytes for a in table_arrays(stack))
    arrays = table_arrays(stack) + table_arrays(view)
    for q in moduli:
        arrays += table_arrays(backend.ntt_context(q))
    assert len(arrays) >= 2 * stack_arrays + 2 * len(moduli)
    for array in arrays:
        assert array.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    with pytest.raises(ValueError, match="read-only"):
        ntt.bit_reverse_permutation(params.ring_degree)[0] = 1


def test_every_shared_table_is_read_only():
    # Moduli as a column and as a grid, a matrix per step and a twiddle
    # between steps, both directions.
    assert_every_shared_table_is_read_only(TOY, 2 + 2 * (2 + 1))


def test_every_shared_dword_table_is_read_only():
    # As above with three table words per matrix, plus the reciprocals
    # of the moduli as a column and as a grid and a float64 copy of each
    # twiddle.  No stacked butterfly tables.
    assert_every_shared_table_is_read_only(PW54, 4 + 2 * (2 * 3 + 2))


def test_concurrent_contexts_end_up_holding_the_same_tables(monkeypatch):
    builds = Builds(monkeypatch)
    workers = 8
    barrier = threading.Barrier(workers)
    held, outputs, errors = {}, {}, []

    def tenant(seed: int):
        try:
            barrier.wait(timeout=30)
            ctx = context(seed)
            outputs[seed] = drive(ctx)
            held[seed] = shared_tables(ctx)
        except Exception as exc:     # re-raised below, in the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=tenant, args=(seed,))
                   for seed in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for exc in errors:
        raise exc
    assert len(held) == workers
    assert sorted(builds.moduli) == sorted(MODULI)
    for tables in held.values():
        assert all(a is b for a, b in zip(tables, held[0]))
    # Shared tables, unshared results: each seed's bits are what that
    # seed produces alone.
    for seed in (0, workers - 1):
        alone = drive(context(seed))
        assert all(ct_equal(a, b) for a, b in zip(outputs[seed], alone))


def test_cache_stays_inside_its_byte_budget(monkeypatch):
    n = TOY.ring_degree
    stack_bytes = BatchedNttContext(MODULI[:2], n).nbytes
    per_limb_bytes = NttContext(MODULI[0], n).nbytes
    # 80 KB of matrices and twiddles per limb, plus its modulus twice.
    assert per_limb_bytes == 16 * n and stack_bytes == 2 * (80 * 1024 + 16)
    small = _TableCache(max_bytes=2 * per_limb_bytes + stack_bytes)
    monkeypatch.setattr(ntt, "_TABLE_CACHE", small)
    first = ntt.batched_ntt_context(MODULI[:2], n)
    view = ntt.batched_ntt_context(MODULI[1:2], n)
    assert view.owner is first and small.nbytes == small.max_bytes
    assert ntt.batched_ntt_context(MODULI[:2], n) is first
    # A second stack does not fit beside the first: the least recently
    # used entries go, and an evicted stack takes its views along.
    second = ntt.batched_ntt_context(MODULI[2:4], n)
    assert small.nbytes <= small.max_bytes
    assert ntt.batched_ntt_context(MODULI[2:4], n) is second
    assert ntt.batched_ntt_context(MODULI[1:2], n) is not view
    assert ntt.batched_ntt_context(MODULI[:2], n) is not first
    assert small.nbytes <= small.max_bytes
    # Evicted tables stay valid for whoever still holds them.
    stack = np.arange(2 * n, dtype=np.int64).reshape(2, n)
    assert np.array_equal(first.inverse(first.forward(stack)), stack)


def test_dword_stack_owns_what_the_cache_docstring_says():
    n = PW54.ring_degree
    ctx = BatchedNttContext(PW54_MODULI[:2], n)
    kernel, (n1, n2) = ctx.matmul, ctx.grid
    words = kernel.pieces * kernel.table_pieces
    assert (words, n1, n2) == (6, 32, 32)
    # Per limb: a float64 matrix of `words` n_j x n_j blocks per step and
    # direction, a twiddle and its float64 copy per direction, and the
    # modulus four times over (column, grid, and both reciprocated).
    assert ctx.nbytes == 2 * (2 * 8 * words * (n1 * n1 + n2 * n2)
                              + 2 * 16 * n + 32)
    assert ctx.nbytes == 2 * (224 * 1024 + 32)
    assert NttContext(PW54_MODULI[0], n).nbytes == 16 * n
