"""The repo's one benchmark: absolute end-to-end numbers plus a traced
per-layer breakdown, defined by ``BENCHMARK.json`` at the repo root.

``python3 -m bench --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints one JSON result line; ``python3 -m bench
--seed 2023 --out BENCH.json`` runs the whole set, one subprocess per
workload; ``python3 -m bench --compare A.json B.json`` judges one set of
runs against another.  See README.md in this directory.

Nothing under ``src/`` knows about this package: every layer is measured
from outside, by timing calls into its public functions.
"""
