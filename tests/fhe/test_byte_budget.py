"""How many bytes the hot kernels allocate above their inputs, as budgets.

``tracemalloc`` traces numpy's array buffers along with every Python
object, so the peak a call reaches above what was allocated when it
started is the working set that call adds: its temporaries and its
output.  Once a call has run a few times (tables built, caches filled)
that peak repeats exactly, call after call and process after process,
on both backends; the first runs differ by a few hundred bytes of
objects at most (the ``stacked`` scoring replay at ``toy`` and ModDown
take three runs to settle, everything else one).
:func:`settled_peak` measures until two runs agree.

Each figure below was recorded on the commit that introduced this file,
with every kernel as it stood then, and is held as a budget: a change
may lower it (and the table with it, old -> new in CHANGES.md), not
raise it.  The Python objects a kernel makes (tuples, array headers,
small ints) are a few hundred bytes to a few KiB and move with the
interpreter and numpy builds; :data:`OBJECTS` is the headroom for them,
half an N = 2**10 row, so only arrays can spend a budget.

One closed form fits: a ``stacked`` transform at ``pw54`` allocates
seven rows per input row, ``7 * rows * N * 8`` bytes (the split words
and partial products of its matmuls) plus 1 416 bytes of objects.  At
``toy`` the int64 tier peaks at 6 rows per row for 2 to 8 rows and at
5 per row plus 8 beyond; the ``reference`` backend transforms row by
row, so its peak is its output plus a few rows of one limb's
temporaries.  Re-record deliberately:
``PYTHONPATH=src:tests/fhe python tests/fhe/test_byte_budget.py``
prints the tables.
"""

import tracemalloc

import numpy as np
import pytest

from repro.fhe import CkksContext
from repro.serve.workloads import scoring_workload
from pins import PRESETS

#: Bytes of Python objects a measured call may make beyond its pin.
OBJECTS = 4096

#: Peak above inputs of one warm call: the 10-row extended basis at
#: ``max_level`` (transforms), both components of a ciphertext from
#: C_5 + P down to C_5 (ModDown) and from C_5 to C_4 (rescale), and the
#: first digit's ModUp at level 5.
KERNEL_PEAKS = {
    ("toy", "stacked", "forward"): 477432,
    ("toy", "stacked", "inverse"): 477432,
    ("toy", "stacked", "moddown"): 723880,
    ("toy", "stacked", "rescale"): 576144,
    ("toy", "stacked", "mod_up"): 329720,
    ("toy", "reference", "forward"): 106648,
    ("toy", "reference", "inverse"): 109952,
    ("toy", "reference", "moddown"): 289840,
    ("toy", "reference", "rescale"): 206768,
    ("toy", "reference", "mod_up"): 152432,
    ("pw54", "stacked", "forward"): 574856,
    ("pw54", "stacked", "inverse"): 574856,
    ("pw54", "stacked", "moddown"): 854000,
    ("pw54", "stacked", "rescale"): 673744,
    ("pw54", "stacked", "mod_up"): 444600,
    ("pw54", "reference", "forward"): 110400,
    ("pw54", "reference", "inverse"): 126512,
    ("pw54", "reference", "moddown"): 323272,
    ("pw54", "reference", "rescale"): 218544,
    ("pw54", "reference", "mod_up"): 166960,
}

#: Peak above its input of one warm width-16 scoring replay
#: (``plan.execute`` from the plan's entry level; no encrypt, no decrypt).
REPLAY_PEAKS = {
    ("toy", "stacked"): 891064,
    ("toy", "reference"): 654728,
    ("pw54", "stacked"): 906528,
    ("pw54", "reference"): 560168,
}

KERNELS = ("forward", "inverse", "moddown", "rescale", "mod_up")


@pytest.fixture(autouse=True, scope="module")
def traced():
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    yield
    if not tracing:
        tracemalloc.stop()


def peak_above(call) -> int:
    """Bytes ``call()`` allocates at its peak above what it started with."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    out = call()
    peak = tracemalloc.get_traced_memory()[1] - start
    del out
    return peak


def settled_peak(call, runs: int = 6) -> int:
    """``call``'s peak once two runs in a row agree, warm-up included."""
    last = peak_above(call)
    for _ in range(runs):
        peak = peak_above(call)
        if peak == last:
            return peak
        last = peak
    raise AssertionError(f"peak never repeated in {runs + 1} runs")


def context(preset: str, backend: str) -> CkksContext:
    return CkksContext(PRESETS[preset](), seed=3, backend=backend)


def random_storage(backend, moduli, rng):
    n = backend.params.ring_degree
    return backend.as_native(
        [rng.integers(0, q, n, dtype=np.int64) for q in moduli], moduli)


def kernel_calls(ctx: CkksContext) -> dict:
    """One call per kernel, on fixed random inputs at ``max_level``."""
    backend = ctx.keygen.context.backend
    ksctx = backend.keyswitch_context(ctx.params.max_level)
    extended, ct = tuple(ksctx.extended), tuple(ksctx.ct_moduli)
    rng = np.random.default_rng(1)
    x = random_storage(backend, extended, rng)
    wide = [random_storage(backend, extended, rng) for _ in range(2)]
    pair = [random_storage(backend, ct, rng) for _ in range(2)]
    digit = backend.digit_decompose(random_storage(backend, ct, rng),
                                    ksctx)[0]
    return {
        "forward": lambda: backend.ntt_forward(x, extended),
        "inverse": lambda: backend.ntt_inverse(x, extended),
        "moddown": lambda: backend.divide_round(wide, extended, len(ct)),
        "rescale": lambda: backend.divide_round(pair, ct, len(ct) - 1),
        "mod_up": lambda: backend.mod_up(digit, 0, ksctx),
    }


def kernel_peaks(preset: str, backend: str) -> dict:
    calls = kernel_calls(context(preset, backend))
    return {name: settled_peak(calls[name]) for name in KERNELS}


def replay_peak(preset: str, backend: str) -> int:
    params = PRESETS[preset]()
    plan = scoring_workload(16).compile(params)
    ctx = CkksContext(params, seed=3, backend=backend)
    slots = np.random.default_rng(5).uniform(-1, 1, params.num_slots)
    ct = ctx.encrypt(slots, level=plan.schedule.entry_level)
    return settled_peak(lambda: plan.execute(ctx, sources=[ct]).output)


@pytest.mark.parametrize("backend", ["stacked", "reference"])
@pytest.mark.parametrize("preset", ["toy", "pw54"])
def test_each_kernel_stays_inside_its_byte_budget(preset, backend):
    peaks = kernel_peaks(preset, backend)
    for name, peak in peaks.items():
        assert peak <= KERNEL_PEAKS[(preset, backend, name)] + OBJECTS, name


@pytest.mark.parametrize("backend", ["stacked", "reference"])
@pytest.mark.parametrize("preset", ["toy", "pw54"])
def test_a_warm_scoring_replay_stays_inside_its_byte_budget(preset, backend):
    assert replay_peak(preset, backend) \
        <= REPLAY_PEAKS[(preset, backend)] + OBJECTS


def test_a_dword_transform_allocates_seven_rows_per_row():
    ctx = context("pw54", "stacked")
    backend = ctx.keygen.context.backend
    params = ctx.params
    row = params.ring_degree * 8
    moduli = tuple(params.moduli) + tuple(params.special_moduli)
    rng = np.random.default_rng(1)
    for rows in range(1, len(moduli) + 1):
        basis = moduli[:rows]
        x = random_storage(backend, basis, rng)
        for transform in (backend.ntt_forward, backend.ntt_inverse):
            peak = settled_peak(lambda: transform(x, basis))
            assert 7 * rows * row <= peak <= 7 * rows * row + OBJECTS


if __name__ == "__main__":
    tracemalloc.start()
    for preset in ("toy", "pw54"):
        for backend in ("stacked", "reference"):
            for name, peak in kernel_peaks(preset, backend).items():
                print(f"    {(preset, backend, name)!r}: {peak},")
    for preset in ("toy", "pw54"):
        for backend in ("stacked", "reference"):
            print(f"    {(preset, backend)!r}: "
                  f"{replay_peak(preset, backend)},")
