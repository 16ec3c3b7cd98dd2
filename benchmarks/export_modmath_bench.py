"""Export native-vs-object modmath timings at the paper word (CI artifact).

Writes ``BENCH_modmath.json`` with median wall-clock timings of the hot
FHE kernels (NTT forward, HEMult, rescale, full KeySwitch, the exact
ModDown) at a 54-bit-prime preset, once on the native
double-word path and once with :func:`repro.fhe.modmath.force_object_dtype`
re-enabling the seed's object-dtype Python-int path.  CI uploads the file
as a build artifact so the native-kernel speedup at paper word sizes is
tracked across PRs.  ``--large-ring`` adds a native-vs-object comparison
at an N=2^13 ring (slow; run by the nightly lane only).

Usage::

    python benchmarks/export_modmath_bench.py --out BENCH_modmath.json
"""

from __future__ import annotations

import argparse
import contextlib
import time

from repro.experiments.export import envelope, write_json
from repro.fhe import CkksContext, CkksParameters, modmath
from repro.fhe.keys import key_switch, mod_down_poly


def median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def bench_params() -> CkksParameters:
    """54-bit word at a mid-size ring: the paper's word size, CI-friendly."""
    return CkksParameters._build(ring_degree=1 << 10, scale_bits=50,
                                 prime_bits=54, max_level=5, boot_levels=2,
                                 dnum=2, fft_iterations=1)


def time_kernels(params: CkksParameters, repeats: int) -> dict:
    """Per-op medians under whatever dispatch regime is active."""
    ctx = CkksContext(params, seed=7, backend="stacked")
    ev = ctx.evaluator
    a = ctx.encrypt([1.0, -0.5, 0.25])
    b = ctx.encrypt([0.5, 2.0, -1.0])
    key = ctx.keygen.relinearization_key(a.level)
    c1_coeff = a.c1.to_coeff()
    # Warm twiddle/key/KeySwitchContext caches before timing.
    ev.he_mult(a, b)
    key_switch(a.c1, key, params)
    ksctx = ctx.keygen.context.backend.keyswitch_context(a.level)
    extended_poly = ctx.keygen.context.random_uniform(ksctx.extended)
    return {
        "ntt_forward": median_seconds(lambda: c1_coeff.to_eval(), repeats),
        "he_mult": median_seconds(lambda: ev.he_mult(a, b), repeats),
        "rescale": median_seconds(
            lambda: ev.rescale(ev.scalar_mult(a, 1.5, rescale=False)),
            repeats),
        "keyswitch_full": median_seconds(
            lambda: key_switch(a.c1, key, params), repeats),
        "moddown_exact": median_seconds(
            lambda: mod_down_poly(extended_poly, ksctx), repeats),
    }


def large_ring_params() -> CkksParameters:
    """54-bit word at N=2^13: the nightly native-vs-object regime."""
    return CkksParameters._build(ring_degree=1 << 13, scale_bits=50,
                                 prime_bits=54, max_level=5, boot_levels=2,
                                 dnum=2, fft_iterations=1)


def time_kernels_large(params: CkksParameters, repeats: int) -> dict:
    """Reduced kernel set at the large ring (the object path is slow)."""
    ctx = CkksContext(params, seed=7, backend="stacked")
    ev = ctx.evaluator
    a = ctx.encrypt([1.0, -0.5, 0.25])
    b = ctx.encrypt([0.5, 2.0, -1.0])
    key = ctx.keygen.relinearization_key(a.level)
    c1_coeff = a.c1.to_coeff()
    ev.he_mult(a, b)
    key_switch(a.c1, key, params)
    return {
        "ntt_forward": median_seconds(lambda: c1_coeff.to_eval(), repeats),
        "he_mult": median_seconds(lambda: ev.he_mult(a, b), repeats),
        "keyswitch_full": median_seconds(
            lambda: key_switch(a.c1, key, params), repeats),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_modmath.json",
                        help="output JSON path")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per op (median is reported)")
    parser.add_argument("--large-ring", action="store_true",
                        help="also run the native-vs-object comparison at "
                             "an N=2^13 ring (slow; nightly lane only)")
    args = parser.parse_args()

    params = bench_params()
    regimes = {}
    for name, guard in (("native", contextlib.nullcontext),
                        ("object", modmath.force_object_dtype)):
        with guard():
            regimes[name] = time_kernels(params, args.repeats)
    extra = {}
    if args.large_ring:
        lparams = large_ring_params()
        lregimes = {}
        for name, guard in (("native", contextlib.nullcontext),
                            ("object", modmath.force_object_dtype)):
            with guard():
                lregimes[name] = time_kernels_large(lparams, args.repeats)
        extra["large_ring"] = {
            "ring_degree": lparams.ring_degree,
            "prime_bits": lparams.prime_bits,
            "seconds": lregimes,
            "speedups_native_vs_object": {
                op: lregimes["object"][op] / lregimes["native"][op]
                for op in lregimes["native"]},
        }
    report = envelope(
        "bench.modmath",
        params={
            "preset": "paper-word-54bit",
            "ring_degree": params.ring_degree,
            "prime_bits": params.prime_bits,
            "num_limbs": params.num_limbs,
            "dnum": params.dnum,
        },
        seconds=regimes,
        speedups_native_vs_object={
            op: regimes["object"][op] / regimes["native"][op]
            for op in regimes["native"]},
        **extra,
    )
    write_json(report, args.out)
    print(f"wrote {args.out}")
    for name, value in sorted(report["speedups_native_vs_object"].items()):
        print(f"  {name}: {value:.2f}x")
    if args.large_ring:
        for name, value in sorted(
                extra["large_ring"]["speedups_native_vs_object"].items()):
            print(f"  large_ring/{name}: {value:.2f}x")


if __name__ == "__main__":
    main()
