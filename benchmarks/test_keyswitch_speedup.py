"""Measured wins of the PR-2 batched key-switch pipeline.

Two acceptance bars, both measured (not asserted from theory):

* the ``stacked`` backend runs KeySwitch at least 2.5x faster than the
  per-limb ``reference`` path at dnum >= 3 limb counts (the paper-scale
  regime the backend was sized for), and
* a hoisted batch of k rotations beats k sequential ``he_rotate`` calls
  by a measured margin (the decompose + ModUp of c1 *and* the forward
  transforms of the raised digits run once instead of k times).

Correctness is guarded by ``tests/fhe/test_keyswitch.py`` (both backends
bit-exact on key_switch and rotation outputs); this file only times.
"""

import time

import numpy as np
import pytest

from repro.fhe import CkksContext, CkksParameters
from repro.fhe.keys import key_switch

pytestmark = pytest.mark.bench

#: dnum=3, max_level=19 -> 20 ciphertext limbs (paper-scale limb count).
PARAMS = CkksParameters.boot_test()
REPEATS = 5
#: Stacked against reference KeySwitch measures 3.3-3.5x now that the
#: stacked ModDown lift is one integer matmul and its transforms and
#: scalings run on tables bound per context (2.0-2.6x while both backends
#: shared ``convert_exact``'s word planes and the stage kernels re-derived
#: their dtype tier per call); the floor leaves room for a noisy host.
KEYSWITCH_FLOOR = 2.5
#: Six hoisted rotations against six sequential ones measure 1.56-1.66x
#: with the raised digits kept in EVAL form (1.22-1.28x when every
#: rotation re-transformed them); the floor leaves room for a noisy host.
HOISTED_FLOOR = 1.25


def median_seconds(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


@pytest.fixture(scope="module")
def fhe_contexts():
    ref = CkksContext(PARAMS, seed=17, backend="reference")
    stk = CkksContext(PARAMS, seed=17, backend="stacked")
    return ref, stk


def limbs_equal(p1, p2):
    return all(np.array_equal(np.asarray(a, dtype=object),
                              np.asarray(b, dtype=object))
               for a, b in zip(p1.limbs, p2.limbs))


def test_keyswitch_speedup(fhe_contexts):
    ref, stk = fhe_contexts
    assert PARAMS.dnum >= 3, "the bar applies at dnum >= 3"
    ct_ref = ref.encrypt([1.0, -0.5, 0.25])
    ct_stk = stk.encrypt([1.0, -0.5, 0.25])
    key_ref = ref.keygen.relinearization_key()
    key_stk = stk.keygen.relinearization_key()
    # Warm twiddle and KeySwitchContext caches, and check bit-exactness of
    # the two datapaths before timing them.
    out_ref = key_switch(ct_ref.c1, key_ref)
    out_stk = key_switch(ct_stk.c1, key_stk)
    assert limbs_equal(out_ref[0], out_stk[0])
    assert limbs_equal(out_ref[1], out_stk[1])
    t_ref = median_seconds(lambda: key_switch(ct_ref.c1, key_ref),
                           repeats=3)
    t_stk = median_seconds(lambda: key_switch(ct_stk.c1, key_stk),
                           repeats=3)
    speedup = t_ref / t_stk
    print(f"\nKeySwitch at {ct_ref.level + 1} limbs, dnum={PARAMS.dnum}: "
          f"reference {t_ref * 1e3:.1f} ms, stacked {t_stk * 1e3:.1f} ms "
          f"({speedup:.1f}x)")
    assert speedup >= KEYSWITCH_FLOOR, (
        f"stacked KeySwitch should be >= {KEYSWITCH_FLOOR}x faster, "
        f"got {speedup:.2f}x")


def test_hoisted_rotation_batch_beats_sequential(fhe_contexts):
    _, stk = fhe_contexts
    ev = stk.evaluator
    ct = stk.encrypt([1.0, 2.0, 3.0, 4.0])
    rotations = [1, 2, 4, 8, 16, 32]
    # Warm rotation keys and caches; verify the batch is bit-exact with the
    # sequential path before timing.
    hoisted = ev.hoisted_rotations(ct, rotations)
    sequential = {r: ev.he_rotate(ct, r) for r in rotations}
    for r in rotations:
        assert limbs_equal(hoisted[r].c0, sequential[r].c0)
        assert limbs_equal(hoisted[r].c1, sequential[r].c1)
    t_seq = median_seconds(
        lambda: [ev.he_rotate(ct, r) for r in rotations], repeats=3)
    t_hoist = median_seconds(
        lambda: ev.hoisted_rotations(ct, rotations), repeats=3)
    speedup = t_seq / t_hoist
    print(f"\n{len(rotations)} rotations at {ct.level + 1} limbs: "
          f"sequential {t_seq * 1e3:.1f} ms, hoisted {t_hoist * 1e3:.1f} ms "
          f"({speedup:.2f}x)")
    assert speedup >= HOISTED_FLOOR, (
        f"hoisted batch should be >= {HOISTED_FLOOR}x faster than "
        f"sequential rotations, got {speedup:.2f}x")


def test_hoisting_win_grows_with_batch_size(fhe_contexts):
    """The per-rotation saving is the hoisted Decomp+ModUp, so larger
    batches amortize the fixed hoist cost better."""
    _, stk = fhe_contexts
    ev = stk.evaluator
    ct = stk.encrypt([0.5, -1.5])
    # A single-rotation "batch" pays the whole hoist itself, maximizing
    # the per-rotation contrast against the 8-batch (the native-kernel
    # work narrowed the absolute hoist cost, so the old 2-vs-8 margin sat
    # within timing noise on loaded CI runners).
    small, large = [1], [1, 2, 3, 5, 9, 17, 33, 65]
    for r in large:
        stk.keygen.rotation_key(r)  # warm keys outside timing
    ev.hoisted_rotations(ct, large)
    per_rot_small = median_seconds(
        lambda: ev.hoisted_rotations(ct, small), repeats=3) / len(small)
    per_rot_large = median_seconds(
        lambda: ev.hoisted_rotations(ct, large), repeats=3) / len(large)
    print(f"\nper-rotation cost: batch of {len(small)} "
          f"{per_rot_small * 1e3:.1f} ms, batch of {len(large)} "
          f"{per_rot_large * 1e3:.1f} ms")
    assert per_rot_large < per_rot_small
