"""Run the table/figure harnesses: the claims ledger, or their raw results.

Command line::

    python -m repro.experiments.runner                    # the whole ledger
    python -m repro.experiments.runner --list             # harness slugs
    python -m repro.experiments.runner --only table8      # one harness's rows
    python -m repro.experiments.runner --only table8 fig7 --json out.json

The report is :func:`repro.experiments.claims.render` over the selected
harnesses' rows; ``opmix`` has none, so ``--only opmix`` is a usage error
without ``--json``.  ``--json`` collects each selected
harness's ``run()`` result instead (tuples serialize as lists), wrapped in
the shared schema envelope of :mod:`repro.experiments.export` (payload key
``"harnesses"`` and the constant ``"source": "traced"``, kept so the
export schema does not change).
"""

from __future__ import annotations

import argparse
import time

from . import (claims, fig6, fig7, fig8, opmix, table4, table6, table7,
               table8, table9)
from .export import envelope, write_json

#: CLI slug -> harness module (every module exposes run()).
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

    rows = claims.ledger(args.only and [HARNESSES[slug] for slug in args.only])
    if not rows:
        parser.error("opmix has no ledger rows: write its run() result with "
                     "--json PATH, or print the op-mix report with "
                     "`python -m repro.analysis --catalog --op-mix`")
    print(claims.render(rows))


if __name__ == "__main__":
    main()
