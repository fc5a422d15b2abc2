"""The metrics registry: counters, gauges, and latency histograms.

Before this module the codebase kept three incompatible ad-hoc stats
stores (``PlannerStats``, ``PoolStats``, the fleet controller's
``_stats`` dict).  All three now sit on top of one registry type, which
buys uniform snapshots, Prometheus text exposition, and quantile-capable
latency histograms without changing any of their public dict shapes
(regression-pinned by ``tests/test_obs_stats.py``).

Everything is thread-safe: the fleet daemon thread, pool callbacks, and
caller threads bump the same instruments concurrently.  Instruments are
deliberately label-free — a registry instance *is* the scope (each
planner, pool, and controller owns one), which keeps the hot path to a
single lock + float add.
"""

from __future__ import annotations

import math
import threading

from repro.errors import ObservabilityError

_NAME_OK = set("abcdefghijklmnopqrstuvwxyz"
               "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ObservabilityError(
            f"bad metric name {name!r}: use [a-zA-Z_:][a-zA-Z0-9_:]*")
    return name


def exponential_buckets(start: float, factor: float, count: int
                        ) -> tuple[float, ...]:
    """Prometheus-style exponential bucket bounds: start·factor^i."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ObservabilityError(
            "exponential buckets need start > 0, factor > 1, count >= 1")
    return tuple(start * factor ** i for i in range(count))


#: default latency buckets: 10 µs → ~168 s in ×2 steps (24 bounds)
LATENCY_BUCKETS = exponential_buckets(1e-5, 2.0, 24)


class Counter:
    """A monotonically increasing value."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, delta: float = 1.0) -> None:
        if delta < 0:
            raise ObservabilityError(
                f"counter {self.name}: negative increment {delta}")
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depth, live workers...)."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, delta: float = 1.0) -> None:
        with self._lock:
            self._value += delta

    def dec(self, delta: float = 1.0) -> None:
        self.inc(-delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Bucketed distribution with cumulative counts (Prometheus layout).

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    tail.  Quantiles are estimated by linear interpolation inside the
    containing bucket — exact enough for p50/p95/p99 serving-latency
    lines, and cheap enough to render on every ``teccl fleet status``.
    """

    def __init__(self, name: str, description: str = "",
                 buckets: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.description = description
        bounds = tuple(buckets) if buckets is not None else LATENCY_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ObservabilityError(
                f"histogram {name}: bucket bounds must strictly increase")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._total = 0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ObservabilityError(
                f"histogram {self.name}: refusing to observe NaN")
        with self._lock:
            idx = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    idx = i
                    break
            self._counts[idx] += 1
            self._sum += value
            self._total += 1
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._total

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 ≤ q ≤ 1); NaN when empty.

        Linear interpolation within the containing bucket: the target
        rank's fractional position among the bucket's observations maps
        onto the bucket's ``(lo, hi]`` interval, with both ends clamped
        to the observed min/max so estimates never leave the data range
        (and the open-ended +Inf bucket uses the observed max).
        """
        if not 0 <= q <= 1:
            raise ObservabilityError(f"quantile {q} not in [0, 1]")
        with self._lock:
            if self._total == 0:
                return math.nan
            target = q * self._total
            seen = 0.0
            for i, count in enumerate(self._counts):
                if count == 0:
                    continue
                if seen + count >= target:
                    # every value in bucket 0 is >= the observed min, so
                    # the min IS that bucket's lower edge
                    lo = max(self.bounds[i - 1], self._min) if i > 0 \
                        else self._min
                    hi = self.bounds[i] if i < len(self.bounds) \
                        else self._max
                    hi = min(hi, self._max)
                    if hi <= lo:
                        return hi
                    frac = (target - seen) / count
                    return lo + frac * (hi - lo)
                seen += count
            return self._max

    def summary(self) -> dict:
        """p50/p95/p99 + count/sum — the serving-latency line."""
        return {
            "count": self.count,
            "sum": self.sum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def snapshot_buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, Prometheus-style."""
        with self._lock:
            out = []
            running = 0
            for bound, count in zip(self.bounds, self._counts):
                running += count
                out.append((bound, running))
            out.append((math.inf, running + self._counts[-1]))
            return out


class CounterFields:
    """Mixin for a stats object over a fixed set of registry counters.

    The subclass names its counters in ``_FIELDS``; each is registered as
    ``<_PREFIX>_<field>_total`` and described by ``_DESCRIPTION`` (its
    ``{words}`` is the field name with spaces). They move only through
    :meth:`inc` and read back as ``int`` attributes (the subclass's
    ``__slots__ = ("registry", "_counters")`` keeps assignment from
    shadowing one).
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()
    _PREFIX = ""
    _DESCRIPTION = ""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(
                f"{self._PREFIX}_{name}_total",
                self._DESCRIPTION.format(words=name.replace("_", " ")))
            for name in self._FIELDS}

    def inc(self, name: str, delta: int = 1) -> None:
        self._counters[name].inc(delta)

    def __getattr__(self, name: str) -> int:
        # only reached for names that are not real attributes: the fields
        if name in self._FIELDS:
            return int(self._counters[name].value)
        raise AttributeError(name)

    def to_dict(self) -> dict:
        """Every field as an ``int``, in ``_FIELDS`` order."""
        return {name: int(c.value) for name, c in self._counters.items()}


class MetricsRegistry:
    """A named family of instruments; get-or-create semantics.

    Asking twice for the same name returns the same instrument; asking
    for the same name as a different type raises — silent type morphing
    is how dashboards rot.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind, factory):
        _check_name(name)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ObservabilityError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}")
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(
            name, Counter, lambda: Counter(name, description))

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(
            name, Gauge, lambda: Gauge(name, description))

    def histogram(self, name: str, description: str = "",
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, description, buckets))

    def instruments(self) -> list[Counter | Gauge | Histogram]:
        with self._lock:
            return [self._instruments[k] for k in sorted(self._instruments)]

    def snapshot(self) -> dict:
        """JSON-ready dump of every instrument (status files, CLI)."""
        out: dict = {}
        for inst in self.instruments():
            if isinstance(inst, Counter):
                out[inst.name] = {"type": "counter", "value": inst.value}
            elif isinstance(inst, Gauge):
                out[inst.name] = {"type": "gauge", "value": inst.value}
            else:
                out[inst.name] = {
                    "type": "histogram",
                    **inst.summary(),
                    "buckets": [[b if b != math.inf else "+Inf", c]
                                for b, c in inst.snapshot_buckets()],
                }
        return out

    def prometheus_text(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        return prometheus_from_snapshot(
            self.snapshot(),
            {inst.name: inst.description for inst in self.instruments()})


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_from_snapshot(snapshot: dict,
                             descriptions: dict[str, str] | None = None,
                             ) -> str:
    """Prometheus text exposition from a :meth:`MetricsRegistry.snapshot`.

    The snapshot is the JSON-ready form the CLI persists (``serve-batch
    --metrics-file``, fleet status files); this renders it scrape-ready
    without needing the live registry — histogram buckets are already
    cumulative, exactly the Prometheus layout. A snapshot carries no
    descriptions; ``descriptions`` (the live registry's) supply the
    ``# HELP`` lines.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        if descriptions and descriptions.get(name):
            lines.append(f"# HELP {name} {descriptions[name]}")
        try:
            kind = entry["type"]
            if kind in ("counter", "gauge"):
                lines.append(f"# TYPE {name} {kind}")
                lines.append(f"{name} {_fmt(float(entry['value']))}")
            elif kind == "histogram":
                lines.append(f"# TYPE {name} histogram")
                for bound, count in entry["buckets"]:
                    le = "+Inf" if bound == "+Inf" else _fmt(float(bound))
                    lines.append(f'{name}_bucket{{le="{le}"}} {int(count)}')
                lines.append(f"{name}_sum {_fmt(float(entry['sum']))}")
                lines.append(f"{name}_count {int(entry['count'])}")
            else:
                raise ObservabilityError(
                    f"metric {name!r}: unknown instrument type {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(
                f"malformed metrics snapshot entry {name!r}: {exc}") from exc
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# the process-default registry (ad-hoc instrumentation, CLI dumps)
# ----------------------------------------------------------------------
_default = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry.

    Component-owned registries (planner, pool, controller) are separate
    scopes; this one exists for code without a natural owner.
    """
    return _default
