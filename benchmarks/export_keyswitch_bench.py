"""Export per-op KeySwitch timings as JSON (CI artifact).

Writes ``BENCH_keyswitch.json`` with median wall-clock timings for the
KeySwitch pipeline stages (digit decompose + ModUp, key product, ModDown,
full KeySwitch) and the hoisted-vs-sequential rotation batch, on both
compute backends.  CI uploads the file as a build artifact so the perf
trajectory of the dominant FHE kernel is tracked across PRs.

Usage::

    python benchmarks/export_keyswitch_bench.py --out BENCH_keyswitch.json
"""

from __future__ import annotations

import argparse
import time

from repro.experiments.export import envelope, write_json
from repro.fhe import CkksContext, CkksParameters
from repro.fhe.keys import (inner_product_keyswitch, key_switch,
                            mod_down_poly, raise_digits)


def median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def time_backend(backend: str, params: CkksParameters,
                 repeats: int) -> dict:
    ctx = CkksContext(params, seed=17, backend=backend)
    ev = ctx.evaluator
    ct = ctx.encrypt([1.0, -0.5, 0.25])
    level = ct.level
    key = ctx.keygen.relinearization_key(level)
    ksctx = ctx.keygen.context.backend.keyswitch_context(level)
    # Warm twiddle/key caches before timing.
    raised = raise_digits(ct.c1, ksctx)
    acc = raised[0] * key.bs[0]
    key_switch(ct.c1, key, params)
    rotations = [1, 2, 4, 8, 16, 32]
    ev.hoisted_rotations(ct, rotations)
    for r in rotations:
        ev.he_rotate(ct, r)
    return {
        "modup_raise_digits": median_seconds(
            lambda: raise_digits(ct.c1, ksctx), repeats),
        "inner_product_keyswitch": median_seconds(
            lambda: inner_product_keyswitch(raised, key, ksctx), repeats),
        "moddown": median_seconds(
            lambda: mod_down_poly(acc, ksctx), repeats),
        "keyswitch_full": median_seconds(
            lambda: key_switch(ct.c1, key, params), repeats),
        "rotations_sequential_6": median_seconds(
            lambda: [ev.he_rotate(ct, r) for r in rotations], repeats),
        "rotations_hoisted_6": median_seconds(
            lambda: ev.hoisted_rotations(ct, rotations), repeats),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_keyswitch.json",
                        help="output JSON path")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per op (median is reported)")
    args = parser.parse_args()

    params = CkksParameters.boot_test()
    seconds = {backend: time_backend(backend, params, args.repeats)
               for backend in ("reference", "stacked")}
    ref, stk = seconds["reference"], seconds["stacked"]
    report = envelope(
        "bench.keyswitch",
        params={
            "preset": "boot_test",
            "ring_degree": params.ring_degree,
            "prime_bits": params.prime_bits,
            "num_limbs": params.num_limbs,
            "dnum": params.dnum,
        },
        seconds=seconds,
        speedups={
            "keyswitch_stacked_vs_reference":
                ref["keyswitch_full"] / stk["keyswitch_full"],
            "rotations_hoisted_vs_sequential_stacked":
                stk["rotations_sequential_6"] / stk["rotations_hoisted_6"],
        },
    )
    write_json(report, args.out)
    print(f"wrote {args.out}")
    for name, value in report["speedups"].items():
        print(f"  {name}: {value:.2f}x")


if __name__ == "__main__":
    main()
