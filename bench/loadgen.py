"""Closed-loop load generator and the measured window it produces.

Server and clients share one process and one asyncio loop; the only
threads are the server's own workers.  Every client submits its next
query when the previous reply arrives — callers that each wait for an
answer.  (An open loop is unstable here: the batcher closes batches on a
2 ms timer whatever the backlog, and a batch costs nearly the same at
any fill, so past saturation the queue only grows.)

The window is cut into short segments as it runs: a segment lasts at
least :data:`~bench.stats.SEGMENT_S`, holds at least one reply per
client, and ends at the first reply to arrive after that, where wall and
process-CPU time are noted.  Replies come a batch at a time, and a
boundary set by a timer would fall between two batches and make a
segment's count jump by a whole batch for a microsecond's difference; cut
at a reply, every segment of a lane that serves one batch at a time holds
whole batch cycles, and where two workers' batches overlap a round of all
clients keeps a segment from being one worker's reply burst.  Throughput,
CPU per op and median latency are taken per segment and a run reports
their quiet side (:func:`bench.stats.quiet`); the higher latency
percentiles are over the whole window.
"""

from __future__ import annotations

import asyncio
from array import array
from dataclasses import dataclass, field
from itertools import count
from time import perf_counter, process_time
from typing import NamedTuple

import numpy as np

from .stats import SEGMENT_S
from .workloads import PICKS, Inputs, Rig

#: Load runs this long before the first segment starts.
WARMUP_S = 0.5


class WindowTooShort(RuntimeError):
    """No reply arrived inside the window."""


class Failed(NamedTuple):
    submitted: float
    done: float
    error: str


@dataclass(repr=False)      # asyncio reprs a finished task's result
class Window:
    """Everything one measured window recorded, one row per reply.

    Rows are columns of machine numbers, not objects: the simulated lane
    answers 200 000 queries in a window, and what the harness keeps per
    reply must not be what its ``peak_rss_mb`` measures.  Result arrays
    are kept where they carry data (``keep_results``: the real lanes,
    a few thousand replies); the simulated executor's zero vectors are
    checked for shape on arrival and dropped.
    """

    #: Tenant names; the ``tenant`` column indexes them.
    tenants: list[str]
    keep_results: bool
    submitted: array = field(default_factory=lambda: array("d"))
    done: array = field(default_factory=lambda: array("d"))
    tenant: array = field(default_factory=lambda: array("H"))
    pick: array = field(default_factory=lambda: array("I"))
    #: ``id()`` of each result: a traced run matches replies to batches
    #: by it (its probes keep the objects alive).
    result_id: array = field(default_factory=lambda: array("Q"))
    results: list[np.ndarray] = field(default_factory=list)
    #: Dropped results that did not have the one-slot shape.
    misshapen: int = 0
    failed: list[Failed] = field(default_factory=list)
    #: The window closes with the first reply at or after ``stop``.
    stop: float = 0.0
    #: (wall, process CPU) at each segment boundary, noted by the first
    #: reply at or after ``due`` that is at least the ``round``-th (one
    #: per client) since the boundary before, the ``counted``-th reply.
    #: ``due`` starts at the end of the warm-up: the first reply from
    #: then on opens the window.
    ticks: list[tuple[float, float]] = field(default_factory=list)
    due: float = 0.0
    round: int = 1
    counted: int = 0
    closed: bool = False
    #: Server-side counters when the window opened and when it closed.
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)

    def add(self, submitted: float, done: float, tenant: int, pick: int,
            result: np.ndarray) -> None:
        self.submitted.append(submitted)
        self.done.append(done)
        self.tenant.append(tenant)
        self.pick.append(pick)
        self.result_id.append(id(result))
        if self.keep_results:
            self.results.append(result)
        elif result.shape != (1,):
            self.misshapen += 1

    @property
    def start(self) -> float:
        return self.ticks[0][0]

    @property
    def end(self) -> float:
        return self.ticks[-1][0]

    def completed(self) -> np.ndarray:
        """Rows of the replies that arrived inside the window."""
        done = np.asarray(self.done)
        return np.flatnonzero((self.start < done) & (done <= self.end))

    def latencies(self) -> np.ndarray:
        rows = self.completed()
        return np.asarray(self.done)[rows] - np.asarray(self.submitted)[rows]

    def refused(self) -> list[Failed]:
        return [f for f in self.failed if self.start < f.done <= self.end]

    def segments(self) -> list[tuple[int, float, float, float]]:
        """(ops completed, wall seconds, CPU seconds, median latency)
        per segment."""
        order = np.argsort(self.done, kind="stable")
        finished = np.asarray(self.done)[order]
        latency = finished - np.asarray(self.submitted)[order]
        walls = [wall for wall, _ in self.ticks]
        upto = np.searchsorted(finished, walls, side="right")
        return [(int(upto[i + 1] - upto[i]), walls[i + 1] - walls[i],
                 self.ticks[i + 1][1] - self.ticks[i][1],
                 float(np.median(latency[upto[i]:upto[i + 1]])))
                for i in range(len(walls) - 1) if upto[i + 1] > upto[i]]


def server_counters(rig: Rig) -> dict:
    """Serve-layer counters a window is differenced over."""
    metrics = rig.server.metrics
    out = dict(metrics.snapshot(), occupancy_samples=len(metrics.occupancies))
    if rig.keys is not None:
        out.update({f"keycache_{k}": v for k, v in rig.keys.stats().items()})
    return out


def _tick(rig: Rig, window: Window, now: float) -> None:
    """Note the clocks if a reply at ``now`` ends a segment."""
    if window.closed or now < window.due:
        return
    window.closed = now >= window.stop
    whole = not window.ticks or (
        now - window.ticks[-1][0] >= SEGMENT_S
        and len(window.done) - window.counted >= window.round)
    if not (whole or window.closed):
        return
    tick = (now, process_time())
    if whole or len(window.ticks) == 1:
        window.ticks.append(tick)
    else:                           # too short to stand alone: the last
        window.ticks[-1] = tick     # segment takes it in
    window.counted = len(window.done)
    if len(window.ticks) == 1:
        window.before = server_counters(rig)
    if window.closed:
        window.after = server_counters(rig)
    window.due = min(now + SEGMENT_S, window.stop)


async def _submit(rig: Rig, window: Window, inputs: Inputs, tenant: int,
                  pick: int) -> None:
    submitted = perf_counter()
    try:
        result = await rig.server.submit(inputs.pool[pick],
                                         tenant=window.tenants[tenant])
    except Exception as exc:    # a refused or failed query is a data point
        window.failed.append(Failed(submitted, perf_counter(), repr(exc)))
        return
    done = perf_counter()
    window.add(submitted, done, tenant, pick, result)
    _tick(rig, window, done)


async def _client(rig, window, inputs, tenant: int, picks, stop: float):
    """One caller: next query when the previous reply arrives."""
    sent = 0
    while perf_counter() < stop:
        await _submit(rig, window, inputs, tenant, picks[sent % PICKS])
        sent += 1


async def _churn(rig, window, inputs, stop: float):
    """All clients move together from tenant to tenant, round-robin."""
    order = inputs.tenant_order
    visit = 0
    while perf_counter() < stop:
        tenant = order[visit % len(order)]
        await asyncio.gather(*(
            _submit(rig, window, inputs, tenant, picks[visit % PICKS])
            for picks in inputs.picks))
        visit += 1


async def drive(rig: Rig, inputs: Inputs, seconds: float) -> Window:
    """Warm up, then measure ``seconds`` of closed-loop load."""
    case = rig.case
    async with rig.server:
        first = perf_counter() + WARMUP_S
        stop = first + seconds
        window = Window(tenants=case.tenants(), keep_results=case.real,
                        stop=stop, due=first, round=case.clients())
        if case.churn_tenants:
            load = [_churn(rig, window, inputs, stop)]
        else:
            tenants = count()
            picks = iter(inputs.picks)
            load = []
            for number, clients in case.groups:
                for _ in range(number):
                    tenant = next(tenants)
                    load += [_client(rig, window, inputs, tenant,
                                     next(picks), stop)
                             for _ in range(clients)]
        await asyncio.gather(*(asyncio.create_task(c) for c in load))
        # Every client stops at ``stop``; the reply that was in flight
        # then closes the window.  Should none have been, close it.
        _tick(rig, window, max(perf_counter(), stop))
    if len(window.ticks) < 2:
        raise WindowTooShort(
            f"no reply arrived between {WARMUP_S:g} s and {seconds:g} s "
            "later; the window is too short for this load")
    return window


async def reserve_singly(server, inputs: Inputs, window: Window,
                         rows) -> int:
    """Re-serve the replies in ``rows`` one query per batch; count
    results that are not bit-identical to what the window served."""
    mismatches = 0
    async with server:
        for row in rows:
            again = await server.submit(
                inputs.pool[window.pick[row]],
                tenant=window.tenants[window.tenant[row]])
            mismatches += not np.array_equal(again, window.results[row])
    return mismatches
