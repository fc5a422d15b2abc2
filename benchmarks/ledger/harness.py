"""Measurement machinery shared by the ledger's workloads.

Everything here observes the program from outside: wall-clock timers around
public calls, process CPU/RSS from the OS, a fixed calibration loop that
qualifies the host, and the benchmark's own spans (``Tracer``) for the
traced pass. Nothing in this module imports ``repro``.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

#: relative slack on "no later than the reference" / "no earlier than the
#: analytic bound" (LP vertices agree to ~1e-9; this is the issue's 1e-6)
QUALITY_RTOL = 1e-6


# ----------------------------------------------------------------------
# samples and statistics
# ----------------------------------------------------------------------
@dataclass
class OpSample:
    """One timed operation of a workload's op list."""

    name: str
    round: int
    #: wall-clock seconds; ``measure`` rescales it to reference host speed
    latency: float
    #: ``time.perf_counter()`` when the op was issued
    start: float = 0.0
    #: set when the op raised or returned an error response
    error: str | None = None
    #: served finish time (``None`` when the op produced no schedule)
    finish_time: float | None = None
    #: last epoch in which the served schedule is active
    finish_epoch: int | None = None
    #: how the answer was produced ("solve", "cache", "replan", ...)
    source: str = ""
    #: filled by verification: why the op counts as failed, if it does
    failure: str | None = None
    #: filled by verification: served finish ÷ reference finish
    quality: float | None = None
    #: whether this sample came from a traced (span-recording) round
    traced: bool = False
    #: workload-private payload for verification (dropped from reports)
    payload: object = field(default=None, repr=False)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default), ``q`` in 0..100."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = math.ceil(position)
    return ordered[lower] + (ordered[upper] - ordered[lower]) \
        * (position - lower)


def median_over_rounds(samples: list[OpSample], stat) -> float:
    """Median over rounds of ``stat(latencies of that round)``."""
    by_round: dict[int, list[float]] = {}
    for sample in samples:
        by_round.setdefault(sample.round, []).append(sample.latency)
    return statistics.median(stat(lat) for lat in by_round.values())


def geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# process resources
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """User+sys CPU of this process and every child it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: duration of one :func:`speed_probe` that defines "reference host speed"
#: (what the 2-core host the benchmark was defined on reads most of the time)
SPEED_REFERENCE_S = 1.4e-3
#: a probe older than this is refreshed before the next op is issued
_PROBE_EVERY_S = 0.05


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    return time.perf_counter() - start


class Pacer:
    """A timeline of speed probes taken between ops.

    The host this benchmark was defined on alternates, every few seconds,
    between two clock regimes 16 % apart; NumPy, HiGHS and interpreter
    time all scale with it. Left alone that is the run-to-run spread of
    every timing. The pacer samples the regime between ops — never inside
    one — and :meth:`slowdown` says how slow the host was around an
    interval, so the harness can report times at reference host speed.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Probe now if the last probe is stale (call between ops only)."""
        if (force or not self.times
                or time.perf_counter() - self.times[-1] > _PROBE_EVERY_S):
            self.durations.append(speed_probe())
            self.times.append(time.perf_counter())

    def slowdown(self, start: float, end: float) -> float:
        """Host slowness over ``[start, end]``: 1.0 = reference speed.

        The mean of the last probe before ``start`` and the first one
        after ``end`` (an op that straddles a regime change gets half).
        """
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end),
                    len(self.times) - 1)
        return (self.durations[before] + self.durations[after]) \
            / (2 * SPEED_REFERENCE_S)


# ----------------------------------------------------------------------
# host calibration
# ----------------------------------------------------------------------
_CALIBRATION_REPEATS = 30


def calibration_ms(pacer: Pacer) -> float:
    """A fixed NumPy + ``linprog`` loop; the median repeat, in ms.

    Run before and after a workload: the two readings qualify the host
    (a noisy neighbour shows up as drift between them) and make ledgers
    taken on different hosts comparable. Each repeat is rescaled to
    reference host speed like every other timing, so the drift that
    remains is what the speed probes could *not* explain. The NumPy half
    is sort / scatter-add / gather — the index arithmetic the model
    builders live on — and deliberately no BLAS call: a threaded BLAS on a
    2-core VM swings between 0.2 and 15 ms for one small matmul.
    """
    rng = np.random.default_rng(12345)
    values = rng.random(100_000)
    index = rng.integers(0, 1000, size=values.size)
    cost = rng.random(120)
    a_ub = rng.random((80, 120))
    b_ub = a_ub.sum(axis=1) / 2.0
    spans = []
    for _ in range(_CALIBRATION_REPEATS):
        pacer.tick(force=True)
        start = time.perf_counter()
        order = np.argsort(values)
        bins = np.zeros(1000)
        np.add.at(bins, index, values)
        values[order].cumsum()
        linprog(-cost, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0),
                method="highs")
        spans.append((start, time.perf_counter()))
    pacer.tick(force=True)
    return 1e3 * statistics.median(
        (end - start) / pacer.slowdown(start, end) for start, end in spans)


# ----------------------------------------------------------------------
# the benchmark's own spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder for the traced pass.

    A span is ``{name, start, end, parent, op}``; ``parent`` is the index
    of the enclosing span (``None`` at top level) and ``op`` the id of the
    operation it belongs to. Spans stay in memory and are written out once,
    when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: str | None = None

    @contextmanager
    def span(self, name: str, op: str | None = None):
        if op is not None:
            self._op = op
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": self._op}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, op: str | None = None) -> list[float]:
        """Durations of the finished spans called ``name`` (of one op)."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None
                and (op is None or s["op"] == op)]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (duration minus child coverage)."""
        child_cover = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                child_cover[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span["end"] is None:
                continue
            own = span["end"] - span["start"] - child_cover[index]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def median_or_zero(values: list[float], scale: float = 1.0) -> float:
    """Median of ``values`` times ``scale``; 0.0 for a layer never entered."""
    return statistics.median(values) * scale if values else 0.0
