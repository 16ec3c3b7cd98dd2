"""Measured wins of the native double-word kernels at the paper word size.

Acceptance bars measured (not asserted from theory) at 54-bit primes:
the stacked transform against the per-limb butterflies, and the
split-word ModDown lift against the big-integer CRT.

Correctness is guarded by ``tests/fhe`` (native bit-exact with the seed
object-dtype arithmetic and across backends); this file only times.
"""

import time

import pytest

from repro.fhe import CkksParameters, modmath

pytestmark = pytest.mark.bench

#: 54-bit word (the paper's prime size) at a mid-size ring.
PARAMS_54 = CkksParameters._build(ring_degree=1 << 10, scale_bits=50,
                                  prime_bits=54, max_level=5, boot_levels=2,
                                  dnum=2, fft_iterations=1)


def best_seconds(fn, repeats=7):
    """Min over repeats: the stablest estimator for short numpy kernels."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _pw54_stack(rows, n=PARAMS_54.ring_degree):
    """``rows`` limbs of the 54-bit basis with seeded residues."""
    import numpy as np

    moduli = (tuple(PARAMS_54.moduli)
              + tuple(PARAMS_54.special_moduli))[:rows]
    rng = np.random.default_rng(11)
    return moduli, np.stack([modmath.random_residues(n, q, rng)
                             for q in moduli])


def _interleaved_best(fast, slow, rounds=5, repeats=7):
    """Best time of each callable, measured in alternating rounds so a
    noisy neighbour slows both sides of the ratio."""
    t_fast = t_slow = float("inf")
    for _ in range(rounds):
        t_fast = min(t_fast, best_seconds(fast, repeats))
        t_slow = min(t_slow, best_seconds(slow, repeats))
    return t_fast, t_slow


def test_dword_stacked_ntt_speedup():
    """One stacked transform of nine 54-bit limbs against nine per-limb
    ones.

    The stacked transform is two split-word matmul steps and one
    ``_mulmod_f64`` twiddle scale over the whole stack; the per-limb one
    is ten butterfly stages per limb through the generic ``*_vec``
    kernels.  When the stack ran butterflies too the
    ratio was stacking alone (~2.5x); the matmul steps measured 3.2-3.9x
    (3.0x floor).  A regression to butterflies, or a recombination that
    grows a few passes, lands below it.
    """
    import numpy as np

    from repro.fhe.ntt import batched_ntt_context, ntt_context

    n = PARAMS_54.ring_degree
    moduli, stack = _pw54_stack(9)
    stacked = batched_ntt_context(moduli, n)
    per_limb = [ntt_context(q, n) for q in moduli]
    assert stacked.klass == "dword"
    want = np.stack([ctx.forward(row) for ctx, row in zip(per_limb, stack)])
    assert np.array_equal(stacked.forward(stack), want)
    t_stacked, t_per_limb = _interleaved_best(
        lambda: stacked.forward(stack),
        lambda: [ctx.forward(row) for ctx, row in zip(per_limb, stack)])
    speedup = t_per_limb / t_stacked
    print(f"\n54-bit 9-limb forward NTT: stacked matmul steps "
          f"{speedup:.1f}x over per-limb butterflies")
    assert speedup >= 3.0, (
        f"the stacked 54-bit transform should beat nine per-limb ones by "
        f">= 3.0x, got {speedup:.2f}x")


def test_dword_exact_lift_speedup():
    """The ModDown lift at the 54-bit word: one split-word matmul against
    ``RnsBasis.convert_exact``, the big-integer CRT (what the stacked
    backend ran before, and the reference backend still does): ~9x
    measured, 4x floor; bit-identical."""
    import numpy as np

    from repro.fhe import PolyContext
    from repro.fhe.rns import division

    backend = PolyContext(PARAMS_54, seed=1, backend="stacked").backend
    ksctx = backend.keyswitch_context(PARAMS_54.max_level)
    moddown = division(ksctx.extended, ksctx.num_ct)
    assert moddown.lift_matmul is not None
    _, special = _pw54_stack(10)
    special = special[ksctx.num_ct:]
    targets = list(ksctx.ct_moduli)

    def oracle():
        return moddown.basis.convert_exact(list(special), targets)

    assert np.array_equal(moddown.lift(special), np.stack(oracle()))
    t_lift, t_oracle = _interleaved_best(
        lambda: moddown.lift(special), oracle)
    speedup = t_oracle / t_lift
    print(f"\n54-bit exact ModDown lift: matmul {speedup:.1f}x over "
          "convert_exact")
    assert speedup >= 4.0, (
        f"the 54-bit lift should beat convert_exact by >= 4x, got "
        f"{speedup:.2f}x")


@pytest.mark.slow
def test_dword_stacked_ntt_at_the_paper_ring_degree():
    """N = 2**16 is where a two-factor plan loses (256 x 256 matrices:
    31.7 ms for three limbs against the per-limb butterflies' 27.2); on
    three factors the stacked transform must not (21-30 ms against 27-31,
    best of interleaved runs; 10 % of timer noise allowed).  Both sides
    run a few times first: every temporary here is past malloc's mmap
    threshold until the allocator has raised it."""
    import numpy as np

    from repro.fhe.ntt import BatchedNttContext, NttContext
    from repro.fhe.primes import generate_ntt_primes

    n = 1 << 16
    moduli = tuple(generate_ntt_primes(3, 54, n))
    rng = np.random.default_rng(5)
    stack = np.stack([modmath.random_residues(n, q, rng) for q in moduli])
    stacked = BatchedNttContext(moduli, n)
    per_limb = [NttContext(q, n) for q in moduli]
    assert len(stacked.grid) == 3

    def run_stacked():
        return stacked.forward(stack)

    def run_per_limb():
        return [ctx.forward(row) for ctx, row in zip(per_limb, stack)]

    for _ in range(6):
        got, want = run_stacked(), run_per_limb()
    assert np.array_equal(got, np.stack(want))
    t_stacked, t_per_limb = _interleaved_best(run_stacked, run_per_limb,
                                              rounds=4, repeats=4)
    print(f"\n54-bit 3-limb forward NTT at N = 2**16: stacked "
          f"{t_stacked * 1e3:.1f} ms, per-limb {t_per_limb * 1e3:.1f} ms")
    assert t_stacked <= 1.1 * t_per_limb, (
        f"stacked {t_stacked * 1e3:.1f} ms slower than per-limb "
        f"{t_per_limb * 1e3:.1f} ms at N = 2**16")
