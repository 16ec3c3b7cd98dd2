"""``repro.artifact``: versioned binary plan/trace containers (``.rpa``).

One compiled HE program — the columnar op trace as the recorder wrote
it, the tool that wrote it, and (optionally) the plaintext payloads
needed for real-mode replay — travels as a single
magic-tagged, block-framed, CRC-checked binary file, the only on-disk
form of a trace or a plan.  A plan is its trace: :func:`load_plan`
lowers the BlockSim DAG again rather than reading one.  Readers skip
unrecognized block types with a warning, so old readers degrade
gracefully on new writers; anything else wrong is an
:class:`ArtifactError` naming the file and the block.

Entry points:

* :func:`save_plan` / :func:`load_plan` — round-trip an
  :class:`~repro.engine.ExecutablePlan` (also exposed as
  ``plan.save(path)`` and ``repro.engine.load_plan``);
* :func:`save_trace` / :func:`load_trace` — round-trip an
  :class:`~repro.trace.OpTrace` (``load_trace`` reads plans too);
* :func:`read_artifact` / :func:`diff_artifacts` — block-level
  inspection and the cheap CI structural diff
  (``python -m repro.artifact inspect|diff|corpus``);
* :mod:`~repro.artifact.corpus` — the golden corpus of catalog plans at
  paper parameters under ``tests/artifact/corpus/``.
"""

from .corpus import (DEFAULT_CORPUS_DIR, CorpusCheck, check_corpus,
                     corpus_params, corpus_path, regen_corpus)
from .diffing import (ArtifactDiff, BlockDiff, artifact_view, diff_artifacts,
                      diff_json, render_diff)
from .format import (CONTAINER_VERSION, MAGIC, ArtifactBlockType,
                     ArtifactError, ArtifactFormatError,
                     ArtifactIntegrityError, ArtifactVersionError,
                     UnknownBlockWarning, block_name, content_fingerprint,
                     params_fingerprint)
from .reader import (BLOCK_HANDLERS, Artifact, load_plan, load_trace,
                     read_artifact, read_artifact_stream)
from .writer import (build_header, plan_blocks, save_plan, save_trace,
                     trace_blocks, write_artifact)

__all__ = [
    "MAGIC",
    "CONTAINER_VERSION",
    "ArtifactBlockType",
    "ArtifactError",
    "ArtifactFormatError",
    "ArtifactIntegrityError",
    "ArtifactVersionError",
    "UnknownBlockWarning",
    "params_fingerprint",
    "content_fingerprint",
    "Artifact",
    "BLOCK_HANDLERS",
    "block_name",
    "read_artifact",
    "read_artifact_stream",
    "load_trace",
    "load_plan",
    "build_header",
    "trace_blocks",
    "plan_blocks",
    "write_artifact",
    "save_trace",
    "save_plan",
    "ArtifactDiff",
    "BlockDiff",
    "artifact_view",
    "diff_artifacts",
    "diff_json",
    "render_diff",
    "DEFAULT_CORPUS_DIR",
    "CorpusCheck",
    "corpus_params",
    "corpus_path",
    "regen_corpus",
    "check_corpus",
]
