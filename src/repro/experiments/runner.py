"""Run the table/figure harnesses: full evaluation or a selected subset.

Command line::

    python -m repro.experiments.runner                    # print everything
    python -m repro.experiments.runner --list             # harness slugs
    python -m repro.experiments.runner --only table8      # one harness
    python -m repro.experiments.runner --only table8 fig7 --json out.json

``--json`` collects each selected harness's ``run()`` result into one
machine-readable document (tuples serialize as lists) instead of the
human-readable report, wrapped in the shared schema envelope of
:mod:`repro.experiments.export` (``schema_version``/``kind``/... plus
this artifact's payload key ``"harnesses"`` and the constant
``"source": "traced"``, kept so the export schema does not change).
"""

from __future__ import annotations

import argparse
import time

from . import (fig6, fig7, fig8, opmix, table4, table6, table7, table8,
               table9)
from .export import envelope, write_json

ALL = (("Table 4", table4), ("Table 6", table6), ("Table 7", table7),
       ("Table 8", table8), ("Table 9", table9), ("Figure 6", fig6),
       ("Figure 7", fig7), ("Figure 8", fig8),
       ("Op mix / lint", opmix))

#: CLI slug -> harness module (every module exposes run() and main()).
HARNESSES = {
    "table4": table4, "table6": table6, "table7": table7,
    "table8": table8, "table9": table9, "fig6": fig6, "fig7": fig7,
    "fig8": fig8, "opmix": opmix,
}


def _jsonable(value):
    """Recursively coerce run() output into JSON-clean structures."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def collect(only: list[str] | None = None) -> dict:
    """{slug: {"result": run() output, "seconds": wall time}}."""
    selected = only or list(HARNESSES)
    out = {}
    for slug in selected:
        harness = HARNESSES[slug]
        start = time.perf_counter()
        result = harness.run()
        out[slug] = {"result": _jsonable(result),
                     "seconds": time.perf_counter() - start}
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Run the paper's table/figure harnesses.")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="print the harness slugs and exit")
    parser.add_argument("--only", nargs="+", choices=sorted(HARNESSES),
                        metavar="HARNESS",
                        help="subset to run (default: all); choices: "
                        + ", ".join(sorted(HARNESSES)))
    parser.add_argument("--json", metavar="PATH",
                        help="write run() results as JSON to PATH "
                        "('-' for stdout) instead of printing reports")
    args = parser.parse_args(argv)

    if args.list_only:
        for slug in sorted(HARNESSES):
            print(slug)
        return

    if args.json is not None:
        doc = envelope("experiments.runner", source="traced",
                       harnesses=collect(args.only))
        write_json(doc, args.json)
        return

    wanted = {HARNESSES[slug] for slug in args.only} if args.only else None
    for name, module in ALL:
        if wanted is not None and module not in wanted:
            continue
        print("=" * 72)
        print(f"== {name}")
        print("=" * 72)
        module.main()
        print()


if __name__ == "__main__":
    main()
