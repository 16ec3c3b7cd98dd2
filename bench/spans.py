"""In-memory span recorder and the self-time arithmetic over its trees.

A span is ``[name, start, end, parent, value]``: ``parent`` indexes the
enclosing span *of the same thread* (-1 for a root) and ``value`` is an
exact count the boundary wants carried along (NTT limb rows).  Spans are
kept per thread — an executor ``run`` lives on one worker thread from
entry to exit, so a batch's spans form one tree under its ``run`` root,
and that root's index is the identifier they share.  Nothing is written
until the benchmark ends (:meth:`SpanRecorder.write_jsonl`).

A layer's *self time* is its span's duration minus the part its child
spans cover, so over any tree the self times sum to the root's duration:
time no wrapped boundary claims stays with the parent that spent it
instead of being dropped.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from time import perf_counter

NAME, START, END, PARENT, VALUE = range(5)


class SpanRecorder:
    """Collects spans from any number of threads, lock-free per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        #: One span list per thread that ever recorded.
        self.threads: list[list[list]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self.threads.append(state[0])
        return state

    def begin(self, name: str, value: int = 0) -> None:
        spans, stack = self._state()
        stack.append(len(spans))
        spans.append([name, perf_counter(), 0.0,
                      stack[-2] if len(stack) > 1 else -1, value])

    def end(self) -> None:
        spans, stack = self._state()
        spans[stack.pop()][END] = perf_counter()

    def span(self, name: str, value: int = 0) -> "_Span":
        """``with recorder.span("stage"): ...``"""
        return _Span(self, name, value)

    def wrap(self, fn, name: str, count=None):
        """``fn`` with a span around every call; ``count(*args)`` is the
        exact count the span carries."""
        def spanned(*args, **kwargs):
            self.begin(name, count(*args, **kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return spanned

    def write_jsonl(self, path: str) -> None:
        """One span per line: thread, index, name, times, parent, root."""
        with open(path, "w") as out:
            for thread, spans in enumerate(self.threads):
                roots = root_indices(spans)
                for index, span in enumerate(spans):
                    out.write(json.dumps({
                        "thread": thread, "index": index,
                        "name": span[NAME], "start": span[START],
                        "end": span[END], "parent": span[PARENT],
                        "root": roots[index], "value": span[VALUE],
                    }) + "\n")


class _Span:
    __slots__ = ("recorder", "name", "value")

    def __init__(self, recorder, name, value):
        self.recorder, self.name, self.value = recorder, name, value

    def __enter__(self):
        self.recorder.begin(self.name, self.value)

    def __exit__(self, *exc):
        self.recorder.end()


def root_indices(spans: list[list]) -> list[int]:
    """For each span, the index of the root of its tree (parents always
    precede children, so one forward pass resolves every chain)."""
    roots: list[int] = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        roots.append(index if parent < 0 else roots[parent])
    return roots


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the duration of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


@dataclass
class NameTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    value: int = 0


@dataclass
class TreeSummary:
    """Aggregates over the trees rooted at ``root_name`` in a window."""

    #: (start, end) of every counted root.
    roots: list[tuple[float, float]] = field(default_factory=list)
    by_name: dict[str, NameTotals] = field(default_factory=dict)

    @property
    def root_seconds(self) -> float:
        return sum(end - start for start, end in self.roots)

    @property
    def self_seconds(self) -> float:
        return sum(t.self_s for t in self.by_name.values())

    def per_root(self, name: str, attr: str = "self_s") -> float:
        """Mean of one name's total per counted root (0 if never seen)."""
        totals = self.by_name.get(name)
        if totals is None or not self.roots:
            return 0.0
        return getattr(totals, attr) / len(self.roots)


def summarize(threads: list[list[list]], root_name: str,
              start: float, end: float) -> TreeSummary:
    """Fold every ``root_name`` tree that ran inside [start, end]."""
    summary = TreeSummary()
    for spans in threads:
        roots = root_indices(spans)
        own = self_times(spans)
        for index, span in enumerate(spans):
            root = spans[roots[index]]
            if (root[NAME] != root_name or root[START] < start
                    or root[END] > end or root[END] == 0.0):
                continue
            if roots[index] == index:
                summary.roots.append((span[START], span[END]))
            totals = summary.by_name.setdefault(span[NAME], NameTotals())
            totals.calls += 1
            totals.total_s += span[END] - span[START]
            totals.self_s += own[index]
            totals.value += span[VALUE]
    return summary


def concurrency_mean(intervals: list[tuple[float, float]]) -> float:
    """Mean number of intervals in progress while any is in progress."""
    busy = 0.0
    covered_to = -float("inf")
    for start, end in sorted(intervals):
        if end > covered_to:
            busy += end - max(start, covered_to)
            covered_to = end
    total = sum(end - start for start, end in intervals)
    return total / busy if busy > 0 else 0.0
