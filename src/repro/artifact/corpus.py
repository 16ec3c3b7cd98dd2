"""Golden corpus: checked-in compiled-plan artifacts per catalog workload.

``tests/artifact/corpus/`` holds one ``.rpa`` plan artifact per
registered workload, compiled at paper parameters.  CI recompiles the
catalog and diffs it per block against these goldens
(:func:`check_corpus`): a structural regression in tracing fails a
sub-second artifact diff instead of a full re-simulation.  The
goldens store no block graph (loading lowers the trace again), so a
lowering change shows in ``tests/trace/test_op_table_pins.py``
instead.  After an *intentional* workload change, regenerate with
``python -m repro.artifact corpus --regen`` and commit the new
artifacts (writes are byte-deterministic, so an unchanged workload
rewrites identical bytes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.fhe.params import CkksParameters

from .diffing import ArtifactDiff, artifact_view, diff_artifacts, render_diff
from .format import ArtifactError
from .reader import read_artifact
from .writer import save_plan

#: Corpus location relative to the repository root (CI runs from there).
DEFAULT_CORPUS_DIR = Path("tests/artifact/corpus")


def corpus_params() -> CkksParameters:
    """The corpus is compiled at paper parameters (Table 3)."""
    return CkksParameters.paper()


def corpus_path(name: str, corpus_dir: Path | str | None = None) -> Path:
    base = Path(corpus_dir) if corpus_dir is not None \
        else DEFAULT_CORPUS_DIR
    return base / f"{name}.rpa"


def _catalog(names: list[str] | None,
             params: CkksParameters | None
             ) -> tuple[list[str], CkksParameters]:
    from repro.workloads.registry import workload_names
    return list(names or workload_names()), params or corpus_params()


def regen_corpus(corpus_dir: Path | str | None = None,
                 params: CkksParameters | None = None,
                 names: list[str] | None = None) -> list[Path]:
    """Compile every catalog workload and (re)write its golden artifact."""
    from repro.workloads.registry import compile_workload
    names, params = _catalog(names, params)
    base = Path(corpus_dir) if corpus_dir is not None \
        else DEFAULT_CORPUS_DIR
    base.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name in names:
        plan = compile_workload(name, params)
        path = corpus_path(name, base)
        save_plan(plan, str(path))
        written.append(path)
    return written


@dataclass
class CorpusCheck:
    """Outcome of checking one workload against its golden artifact."""

    name: str
    path: Path
    diff: ArtifactDiff | None = None
    error: str | None = None
    #: Render-ready detail lines (per-block diff or the error).
    detail: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not (self.diff or False)


def check_corpus(corpus_dir: Path | str | None = None,
                 params: CkksParameters | None = None,
                 names: list[str] | None = None) -> list[CorpusCheck]:
    """Recompile the catalog and diff each plan against its golden.

    Missing or unreadable goldens are reported as errors (the lane that
    consumes this fails); structural deltas carry the full per-block
    diff rendering.
    """
    from repro.workloads.registry import compile_workload
    names, params = _catalog(names, params)
    results: list[CorpusCheck] = []
    for name in names:
        path = corpus_path(name, corpus_dir)
        result = CorpusCheck(name=name, path=path)
        try:
            golden = read_artifact(str(path))
        except OSError:
            result.error = (f"golden artifact missing: {path} "
                            "(regenerate with `python -m repro.artifact "
                            "corpus --regen`)")
            result.detail = [result.error]
            results.append(result)
            continue
        except ArtifactError as exc:
            result.error = f"golden artifact unreadable: {exc}"
            result.detail = [result.error]
            results.append(result)
            continue
        current = artifact_view(compile_workload(name, params))
        result.diff = diff_artifacts(golden, current)
        if result.diff:
            result.detail = render_diff(result.diff).splitlines()
        results.append(result)
    return results
