"""Summary statistics with the reporting rules the benchmark promises.

* A timing is reported as its median — always, with the sample count —
  and a higher percentile only when at least :data:`TAIL_SAMPLES`
  samples lie beyond it; otherwise that percentile is ``None`` (a p99
  over 300 samples is three numbers, not a measurement).
* Throughput, CPU cost and median latency are taken per short segment
  of the measured window, and a run reports the *quiet side* of them:
  the third-best segment.  A shared sandbox slows a process for a
  fraction of a second to minutes at a time and never speeds it up, so
  the segments it left alone say what the program costs; the median over
  segments says what the neighbours were doing.  The shorter the
  segments, the more of them fall between two slow spells (README.md,
  "Steadiness").
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a percentile before it is reported.
TAIL_SAMPLES = 10

#: A segment of a measured window lasts at least this long (and one reply
#: per client) and ends at a reply, so it holds whole batch cycles.
SEGMENT_S = 0.05

#: A run reports the segment that ranks this high from the best: two
#: flukes cannot set the figure.
QUIET_RANK = 3


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in (0, 100])."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the q-th percentile."""
    return count - max(1, math.ceil(q / 100 * count)) if count else 0


def timing_summary(samples, tails=(95, 99)) -> dict:
    """``{"n", "p50", "p95", "p99"}`` under the tail rule above."""
    ordered = sorted(samples)
    out: dict = {"n": len(ordered),
                 "p50": statistics.median(ordered) if ordered else None}
    for q in tails:
        supported = samples_beyond(len(ordered), q) >= TAIL_SAMPLES
        out[f"p{q}"] = percentile(ordered, q) if supported else None
    return out


def quiet(values, better: str) -> float:
    """The :data:`QUIET_RANK`-th best of ``values`` (the worst, if there
    are fewer): what the program did while the machine left it alone."""
    ordered = sorted(values, reverse=better == "higher")
    if not ordered:
        raise ValueError("quiet side of no samples")
    return ordered[min(QUIET_RANK, len(ordered)) - 1]


def segment_spread(rates) -> float:
    """Quiet-side over median per-segment throughput, a ratio >= 1: how
    much of the window the machine disturbed (1.0 = none of it)."""
    middle = statistics.median(rates)
    return quiet(rates, "higher") / middle if middle > 0 else math.inf
