"""SLO alerts: declarative rules evaluated over metrics snapshots.

The serving tier's health questions are ratios and trends, not raw
counters — is the cache hit rate above its floor, is serve-latency p99
under its ceiling, are symmetry fallbacks creeping up?  This module
answers them in-process, with no external monitoring stack:

* :func:`flatten_snapshot` lowers a ``MetricsRegistry.snapshot()`` to
  one flat ``{name: float}`` dict (histograms become ``_count`` /
  ``_sum`` / ``_p50`` / ``_p95`` / ``_p99`` series);
* :class:`SnapshotRing` keeps a short time-series of flattened
  snapshots so rules can fire on *rates* (delta over a window), not
  just levels;
* :class:`AlertEngine` evaluates :class:`AlertRule` instances against
  the latest snapshot and reports firing alerts, remembering which are
  *newly* firing so the fleet controller can trigger exactly one
  flight-recorder dump per incident instead of one per poll.

Rules are plain data (JSON-loadable for ``teccl obs alerts --rules``);
:func:`builtin_rules` ships the six SLOs named in the roadmap: cache
hit-rate floor, serve-latency p99 ceiling, conformance failures,
symmetry-fallback rate, WAL append latency, and fleet rollbacks.
A rule whose metric is absent from the snapshot is skipped, never
fired — half-wired deployments must not page.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import time

from repro.errors import ObservabilityError

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def flatten_snapshot(snapshot: dict) -> dict:
    """Lower a registry snapshot to flat ``{series_name: float}``.

    Counters/gauges map to their value under the metric name; histogram
    summaries expand to ``name_count``, ``name_sum``, ``name_p50``,
    ``name_p95``, ``name_p99``.
    """
    flat: dict[str, float] = {}
    for name, entry in snapshot.items():
        if not isinstance(entry, dict):
            continue
        if "value" in entry:
            value = entry["value"]
            if isinstance(value, (int, float)):
                flat[name] = float(value)
        elif "count" in entry:
            for key in ("count", "sum", "p50", "p95", "p99"):
                value = entry.get(key)
                if isinstance(value, (int, float)) and \
                        not math.isnan(float(value)):
                    flat[f"{name}_{key}"] = float(value)
    return flat


@dataclasses.dataclass(frozen=True)
class AlertRule:
    """One declarative SLO: ``value(metric) OP threshold`` fires.

    ``kind`` selects how the left-hand value is derived:

    * ``"value"`` — the metric's current level;
    * ``"ratio"`` — ``metric / (metric + denominator)`` when
      ``denominator`` names the complement series (hit-rate style), or
      ``metric / denominator`` when ``ratio_of_total`` is set;
    * ``"rate"`` — delta of the metric over the ring's window,
      per second (requires a :class:`SnapshotRing` with >= 2 samples).

    ``min_count`` gates noisy early-life ratios: the rule stays silent
    until the denominator series has seen that many observations.
    """

    name: str
    metric: str
    op: str
    threshold: float
    kind: str = "value"
    denominator: str | None = None
    ratio_of_total: bool = False
    min_count: float = 0.0
    severity: str = "warning"
    description: str = ""

    def __post_init__(self):
        if self.op not in _OPS:
            raise ObservabilityError(
                f"alert rule {self.name!r}: unknown op {self.op!r} "
                f"(use one of {sorted(_OPS)})")
        if self.kind not in ("value", "ratio", "rate"):
            raise ObservabilityError(
                f"alert rule {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "ratio" and not self.denominator:
            raise ObservabilityError(
                f"alert rule {self.name!r}: ratio rules need a denominator")

    @classmethod
    def from_dict(cls, doc: dict) -> "AlertRule":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - fields
        if unknown:
            raise ObservabilityError(
                f"alert rule {doc.get('name', '?')!r}: unknown keys "
                f"{sorted(unknown)}")
        missing = {"name", "metric", "op", "threshold"} - set(doc)
        if missing:
            raise ObservabilityError(
                f"alert rule {doc.get('name', '?')!r}: missing keys "
                f"{sorted(missing)}")
        return cls(**doc)

    def evaluate(self, flat: dict,
                 ring: "SnapshotRing | None" = None) -> "Alert | None":
        """Fire against one flattened snapshot; None = quiet or skipped."""
        value = self._value(flat, ring)
        if value is None:
            return None
        if not _OPS[self.op](value, self.threshold):
            return None
        return Alert(rule=self, value=value)

    def _value(self, flat: dict, ring: "SnapshotRing | None"):
        num = flat.get(self.metric)
        if num is None:
            return None
        if self.kind == "value":
            return num
        if self.kind == "ratio":
            den = flat.get(self.denominator)
            if den is None:
                return None
            total = den if self.ratio_of_total else num + den
            if total < max(self.min_count, 1e-12):
                return None
            return num / total
        # rate: delta over the ring window, per second
        if ring is None:
            return None
        delta = ring.rate(self.metric)
        return delta


@dataclasses.dataclass(frozen=True)
class Alert:
    """A firing rule plus the observed value that tripped it."""

    rule: AlertRule
    value: float

    def to_dict(self) -> dict:
        return {
            "name": self.rule.name,
            "severity": self.rule.severity,
            "metric": self.rule.metric,
            "value": round(self.value, 9),
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "description": self.rule.description,
        }

    def render(self) -> str:
        return (f"[{self.rule.severity}] {self.rule.name}: "
                f"{self.rule.metric}={self.value:.6g} "
                f"{self.rule.op} {self.rule.threshold:g}"
                + (f" — {self.rule.description}"
                   if self.rule.description else ""))


class SnapshotRing:
    """A short time-series of flattened snapshots, for rate rules.

    Bounded like the flight recorder: ``maxlen`` evicts the oldest
    sample, so a daemon sampling every poll keeps a sliding window
    rather than an unbounded history.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 2:
            raise ObservabilityError(
                f"snapshot ring capacity must be >= 2, got {capacity}")
        self._ring: collections.deque[tuple[float, dict]] = \
            collections.deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._ring)

    def sample(self, flat: dict, now: float | None = None) -> None:
        self._ring.append((time.time() if now is None else now, dict(flat)))

    def rate(self, metric: str) -> float | None:
        """Per-second delta of ``metric`` across the window, or None."""
        if len(self._ring) < 2:
            return None
        t0, first = self._ring[0]
        t1, last = self._ring[-1]
        if metric not in first or metric not in last:
            return None
        elapsed = t1 - t0
        if elapsed <= 0:
            return None
        return (last[metric] - first[metric]) / elapsed

    def delta(self, metric: str) -> float | None:
        """Raw change of ``metric`` across the window, or None."""
        if len(self._ring) < 2:
            return None
        first, last = self._ring[0][1], self._ring[-1][1]
        if metric not in first or metric not in last:
            return None
        return last[metric] - first[metric]


def builtin_rules() -> list[AlertRule]:
    """The shipped serving-tier SLOs (thresholds are starting points)."""
    return [
        AlertRule(
            name="cache_hit_rate_floor",
            metric="cache_hits_total", denominator="cache_misses_total",
            kind="ratio", op="<", threshold=0.5, min_count=20,
            description="exact-fingerprint cache hit rate below 50% "
                        "over >=20 lookups"),
        AlertRule(
            name="serve_latency_p99_ceiling",
            metric="planner_serve_latency_seconds_p99",
            op=">", threshold=30.0, severity="critical",
            description="planner serve latency p99 above 30s"),
        AlertRule(
            name="conformance_failures",
            metric="planner_conformance_failures_total",
            op=">", threshold=0, severity="critical",
            description="a served schedule failed conformance replay"),
        AlertRule(
            name="symmetry_fallback_rate",
            metric="symmetry_fallbacks_total",
            denominator="symmetry_reductions_total",
            kind="ratio", ratio_of_total=True,
            op=">", threshold=0.25, min_count=4,
            description="more than 25% of symmetry-reduced solves fell "
                        "back to the full model"),
        AlertRule(
            name="horizon_retry_rate",
            metric="horizon_retries_total",
            denominator="horizon_solves_total",
            kind="ratio", ratio_of_total=True,
            op=">", threshold=0.25, min_count=8,
            description="more than one horizon rung in four was a "
                        "re-solve: the first-rung estimate undershoots"),
        AlertRule(
            name="wal_append_latency_p99",
            metric="fleet_wal_append_seconds_p99",
            op=">", threshold=0.25,
            description="fleet WAL append p99 above 250ms"),
        AlertRule(
            name="fleet_rollbacks",
            metric="fleet_rollbacks_total",
            op=">", threshold=0, severity="critical",
            description="the fleet controller rolled back an adapted "
                        "schedule"),
    ]


class AlertEngine:
    """Evaluate a rule set against snapshots; track newly-firing alerts."""

    def __init__(self, rules: list[AlertRule] | None = None,
                 ring_capacity: int = 64) -> None:
        self.rules = list(builtin_rules() if rules is None else rules)
        self.ring = SnapshotRing(ring_capacity)
        self._firing: set[str] = set()

    def evaluate(self, snapshot: dict,
                 now: float | None = None) -> list[Alert]:
        """One evaluation pass: samples the ring, returns firing alerts.

        ``engine.newly_fired`` afterwards holds the names that were quiet
        on the previous pass — the edge-trigger the dump path keys on.
        """
        flat = flatten_snapshot(snapshot)
        self.ring.sample(flat, now=now)
        firing = []
        for rule in self.rules:
            alert = rule.evaluate(flat, self.ring)
            if alert is not None:
                firing.append(alert)
        names = {alert.rule.name for alert in firing}
        self.newly_fired = sorted(names - self._firing)
        self._firing = names
        return firing

    newly_fired: list[str] = []
