"""CLI for ``.rpa`` plan/trace artifacts::

    python -m repro.artifact inspect plan.rpa [--json]
    python -m repro.artifact diff a.rpa b.rpa [--json]
    python -m repro.artifact corpus [--regen] [--dir DIR] [--params P]

Exit status: ``inspect`` 0/2 (unreadable); ``diff`` 0 identical,
1 structural delta, 2 unreadable; ``corpus`` (check mode) 0 when every
workload matches its golden, 1 on any delta or missing golden, 2 on
unexpected errors.  Every unreadable file is one ``error:`` line naming
it.  ``--json`` documents use the shared export envelope
(:mod:`repro.experiments.export`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.fhe.params import CkksParameters

from .corpus import check_corpus, regen_corpus
from .diffing import diff_artifacts, diff_json, render_diff
from .format import ArtifactError
from .reader import Artifact, read_artifact

_PARAM_PRESETS = {
    "toy": CkksParameters.toy,
    "test": CkksParameters.test,
    "paper": CkksParameters.paper,
}


def _inspect_doc(artifact: Artifact) -> dict[str, Any]:
    header = artifact.header
    return {
        "path": artifact.path,
        "name": artifact.name,
        "kind": artifact.kind,
        "fingerprint": artifact.fingerprint,
        "schema_version": header.get("schema_version"),
        "container_version": header.get("container_version"),
        "params_fingerprint": header.get("params_fingerprint"),
        "counts": header.get("counts", {}),
        "blocks": artifact.block_sizes,
        "skipped_blocks": artifact.skipped_blocks,
    }


def _cmd_inspect(args: argparse.Namespace) -> int:
    artifact = read_artifact(args.path)
    doc = _inspect_doc(artifact)
    if args.json:
        from repro.experiments.export import envelope, write_json
        write_json(envelope("artifact.inspect", artifact=doc), "-")
        return 0
    print(f"{args.path}: {doc['kind']} artifact "
          f"(container v{doc['container_version']}, "
          f"schema v{doc['schema_version']})")
    print(f"  name:        {doc['name']}")
    print(f"  fingerprint: {doc['fingerprint']} "
          f"(params {doc['params_fingerprint']})")
    counts = doc["counts"]
    print("  counts:      " + ", ".join(
        f"{key}={counts[key]}" for key in sorted(counts)))
    print("  blocks:")
    for name, size in artifact.block_sizes.items():
        print(f"    {name:10s} {size:10d} bytes")
    for block_type in artifact.skipped_blocks:
        print(f"    type-{block_type}  (skipped: unrecognized)")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    diff = diff_artifacts(read_artifact(args.a), read_artifact(args.b))
    if args.json:
        from repro.experiments.export import envelope, write_json
        write_json(envelope("artifact.diff", diff=diff_json(diff)), "-")
    else:
        print(render_diff(diff))
    return 1 if diff else 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    params = _PARAM_PRESETS[args.params]()
    if args.regen:
        written = regen_corpus(args.dir, params)
        for path in written:
            print(f"wrote {path}")
        return 0
    results = check_corpus(args.dir, params)
    failed = 0
    for result in results:
        status = "ok" if result.ok else "DELTA" if result.error is None \
            else "ERROR"
        print(f"{result.name:10s} {status}   ({result.path})")
        if not result.ok:
            failed += 1
            for line in result.detail:
                print(f"  {line}")
    if failed:
        print(f"{failed} of {len(results)} workloads differ from the "
              "golden corpus; regenerate with --regen after an "
              "intentional change")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.artifact",
        description="Inspect, diff, and corpus-manage .rpa plan/trace "
        "artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    inspect = sub.add_parser("inspect",
                             help="print header + block table")
    inspect.add_argument("path")
    inspect.add_argument("--json", action="store_true",
                         help="emit the shared export envelope")
    inspect.set_defaults(func=_cmd_inspect)

    diff = sub.add_parser("diff", help="per-block structural diff of "
                          "two .rpa artifacts")
    diff.add_argument("a")
    diff.add_argument("b")
    diff.add_argument("--json", action="store_true",
                      help="emit the shared export envelope")
    diff.set_defaults(func=_cmd_diff)

    corpus = sub.add_parser(
        "corpus", help="check the catalog against the golden corpus "
        "(default) or regenerate it")
    corpus.add_argument("--regen", "--regen-corpus", action="store_true",
                        dest="regen",
                        help="recompile and rewrite the golden corpus")
    corpus.add_argument("--dir", default=None,
                        help="corpus directory (default: "
                        "tests/artifact/corpus)")
    corpus.add_argument("--params", choices=sorted(_PARAM_PRESETS),
                        default="paper",
                        help="parameter preset (default: paper)")
    corpus.set_defaults(func=_cmd_corpus)

    args = parser.parse_args(argv)
    try:
        result: int = args.func(args)
    except (OSError, ArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return result


if __name__ == "__main__":
    sys.exit(main())
