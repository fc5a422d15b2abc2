"""The flight recorder: an always-on ring buffer of recent events.

Tracing (:mod:`repro.obs.trace`) answers "where does the time go" when
someone *planned* to ask; this module answers the production question —
"what just happened" — after the fact, with nobody having enabled
anything. A bounded, lock-cheap ring holds the most recent event and
decision records and *every* closed ``trace.span`` (planner serve
phases, pool solves, fleet decisions, and the solve's own build /
compile / backend / extract / conformance phases). On an incident the
ring is dumped to a JSONL snapshot:

* automatically, on planner failures, fleet rollbacks and
  recovery-drops, and newly-firing SLO alerts (see
  :mod:`repro.obs.alerts`) — when a dump directory is configured
  (``TECCL_FLIGHT_DIR`` or :func:`set_dump_dir`); without one the
  automatic paths stay silent, so library use never scatters files;
* on ``SIGUSR2`` (:func:`install_signal_dump` — the long-running CLI
  verbs install it);
* on demand, via :meth:`FlightRecorder.dump` / ``teccl obs dump``.

The recorder is one of the three sinks of ``trace.span`` (with the
tracer and the phase collector); there is no second, coarser span API
and no filter. A cache hit rings its five planner spans; a cold solve
rings 13–28 spans (about 3× what the former hand-picked subset rang),
so the ``DEFAULT_CAPACITY``-record ring holds proportionally fewer cold
requests of history. Appends are a ``deque`` push under the GIL plus
one short lock for the drop counter (~1.8 µs per span, no ids minted),
and the whole layer can be disabled for the overhead bench's A/B runs:
``benchmarks/bench_obs_overhead.py`` holds spans-per-solve × append
cost under a 2% budget.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import json
import os
import threading
import time
from pathlib import Path

from repro.errors import ObservabilityError

#: bump when the flight-record layout changes (dump readers check it)
FLIGHT_SCHEMA_VERSION = 1

#: environment variable naming the automatic-dump directory
FLIGHT_DIR_ENV = "TECCL_FLIGHT_DIR"

#: default ring capacity (records, not bytes)
DEFAULT_CAPACITY = 2048

#: automatic dumps per process (incident snapshots, not a log stream)
MAX_AUTO_DUMPS = 16

#: minimum seconds between automatic dumps for one reason
AUTO_DUMP_INTERVAL_S = 1.0

# request-correlation label stamped onto every record (the planner sets
# it to the request fingerprint around serving; workers to theirs)
_ctx: contextvars.ContextVar[str | None] = \
    contextvars.ContextVar("teccl_flight_ctx", default=None)

# the active per-phase duration accumulator (explain records)
_phases: contextvars.ContextVar[dict | None] = \
    contextvars.ContextVar("teccl_flight_phases", default=None)


class FlightRecorder:
    """A bounded ring of recent observability records.

    Appends are cheap by construction: one ``deque.append`` (atomic under
    the GIL, ``maxlen`` evicts the oldest) plus a short lock for the
    total counter. Drops are derivable — ``total - len(ring)`` — so the
    hot path never branches on fullness.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ObservabilityError(
                f"flight recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: collections.deque[dict] = \
            collections.deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._total = 0
        self._dumps = 0
        self._auto_dumps = 0
        self._last_auto: dict[str, float] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, kind: str, name: str, attrs: dict | None = None,
               dur: float | None = None, t: float | None = None) -> None:
        """Append one record to the ring (never raises, never blocks long)."""
        rec = {
            "kind": kind,
            "name": name,
            "t": time.time() if t is None else t,
            "ctx": _ctx.get(),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": attrs if attrs is not None else {},
        }
        if dur is not None:
            rec["dur"] = dur
        self._ring.append(rec)
        with self._lock:
            self._total += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Records ever appended (survivors + dropped)."""
        with self._lock:
            return self._total

    @property
    def drops(self) -> int:
        """Records evicted by the ring bound."""
        with self._lock:
            return max(0, self._total - len(self._ring))

    def snapshot(self) -> list[dict]:
        """The ring's current contents, oldest first (a copy)."""
        return [dict(rec) for rec in list(self._ring)]

    def clear(self) -> None:
        self._ring.clear()
        with self._lock:
            self._total = 0

    # ------------------------------------------------------------------
    # dumping
    # ------------------------------------------------------------------
    def dump(self, path: str | Path | None = None, *,
             reason: str = "manual") -> Path:
        """Write the ring to a JSONL snapshot file; returns the path.

        The first line is a header record (schema version, reason,
        counters); each following line is one ring record, oldest first.
        Without an explicit ``path`` the configured dump directory names
        the file (``flight-<reason>-<pid>-<seq>.jsonl``).
        """
        events = self.snapshot()
        with self._lock:
            self._dumps += 1
            seq = self._dumps
        if path is None:
            directory = dump_dir()
            if directory is None:
                raise ObservabilityError(
                    "no dump path: pass one, set_dump_dir(...), or export "
                    f"{FLIGHT_DIR_ENV}")
            path = Path(directory) / \
                f"flight-{reason}-{os.getpid()}-{seq}.jsonl"
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "flight_header",
            "v": FLIGHT_SCHEMA_VERSION,
            "reason": reason,
            "t": time.time(),
            "pid": os.getpid(),
            "events": len(events),
            "drops": self.drops,
            "total": self.total,
        }
        try:
            with open(path, "w", encoding="utf-8") as handle:
                for rec in [header, *events]:
                    handle.write(json.dumps(rec, separators=(",", ":"),
                                            sort_keys=True, default=str))
                    handle.write("\n")
        except OSError as exc:
            raise ObservabilityError(
                f"cannot write flight dump {path}: {exc}") from exc
        return path

    def auto_dump(self, reason: str) -> Path | None:
        """Incident-triggered dump: quiet no-op without a dump directory.

        Rate-limited (per reason, and a per-process cap) so a failure
        storm in a test suite or a flapping alert cannot scatter
        hundreds of snapshots. Never raises — the incident path must not
        add a second failure.
        """
        if dump_dir() is None:
            return None
        now = time.monotonic()
        with self._lock:
            if self._auto_dumps >= MAX_AUTO_DUMPS:
                return None
            last = self._last_auto.get(reason)
            if last is not None and now - last < AUTO_DUMP_INTERVAL_S:
                return None
            self._last_auto[reason] = now
            self._auto_dumps += 1
        try:
            return self.dump(reason=reason)
        except ObservabilityError:
            return None


# ----------------------------------------------------------------------
# the module-global recorder (always on by default)
# ----------------------------------------------------------------------
_recorder: FlightRecorder | None = FlightRecorder()
_configure_lock = threading.Lock()
_dump_dir: Path | None = None


def get_recorder() -> FlightRecorder:
    """The process recorder; re-enables a disabled one."""
    global _recorder
    with _configure_lock:
        if _recorder is None:
            _recorder = FlightRecorder()
        return _recorder


def configure_recorder(capacity: int = DEFAULT_CAPACITY) -> FlightRecorder:
    """Replace the process recorder (fresh ring, new capacity)."""
    global _recorder
    with _configure_lock:
        _recorder = FlightRecorder(capacity)
        return _recorder


def disable_recorder() -> None:
    """Turn the recorder off entirely (the overhead bench's baseline)."""
    global _recorder
    with _configure_lock:
        _recorder = None


def record(kind: str, name: str, attrs: dict | None = None) -> None:
    """Append a record to the process recorder (no-op when disabled)."""
    rec = _recorder
    if rec is not None:
        rec.record(kind, name, attrs=attrs)


def auto_dump(reason: str) -> Path | None:
    """Incident dump on the process recorder (no-op when disabled)."""
    rec = _recorder
    if rec is None:
        return None
    return rec.auto_dump(reason)


def wants_spans() -> bool:
    """Whether a closed span has anywhere to go here: the ring is on, or
    a ``collect_phases`` block is open on this thread."""
    return _recorder is not None or _phases.get() is not None


def note_span(name: str, t0_wall: float, dur: float, attrs: dict) -> None:
    """A closed ``trace.Span``: ring entry when the recorder is active,
    plus phase-accumulator credit either way — explain phases survive a
    disabled recorder."""
    rec = _recorder
    if rec is not None:
        rec.record("span", name, attrs=attrs, dur=dur, t=t0_wall)
    acc = _phases.get()
    if acc is not None:
        acc[name] = acc.get(name, 0.0) + dur


# ----------------------------------------------------------------------
# correlation & phase collection
# ----------------------------------------------------------------------
@contextlib.contextmanager
def context(label: str | None):
    """Stamp ``label`` (e.g. a request fingerprint) onto records inside."""
    token = _ctx.set(label)
    try:
        yield
    finally:
        _ctx.reset(token)


@contextlib.contextmanager
def collect_phases():
    """Accumulate span durations by name into the yielded dict.

    The explain path wraps a serving (or synthesis) step in this: every
    ``span`` that closes inside contributes its duration, so per-phase
    costs are lifted from the live span stack instead of re-read from a
    trace file. Nesting replaces the accumulator (inner phases belong to
    the inner collector), exactly what a planner-calls-synthesize stack
    wants.
    """
    acc: dict[str, float] = {}
    token = _phases.set(acc)
    try:
        yield acc
    finally:
        _phases.reset(token)


# ----------------------------------------------------------------------
# dump destinations & helpers
# ----------------------------------------------------------------------
def set_dump_dir(path: str | Path | None) -> None:
    """Set (or clear) the automatic-dump directory for this process.

    Overrides the ``TECCL_FLIGHT_DIR`` environment variable; ``None``
    falls back to it.
    """
    global _dump_dir
    _dump_dir = None if path is None else Path(path)


def dump_dir() -> Path | None:
    """The resolved dump directory (explicit setting, then environment)."""
    if _dump_dir is not None:
        return _dump_dir
    env = os.environ.get(FLIGHT_DIR_ENV)
    return Path(env) if env else None


def install_signal_dump() -> bool:
    """Dump the ring on ``SIGUSR2``; returns False off the main thread.

    The previous handler is chained (called after the dump) so stacking
    with an application's own SIGUSR2 use stays safe.
    """
    import signal

    if threading.current_thread() is not threading.main_thread():
        return False
    previous = signal.getsignal(signal.SIGUSR2)

    def _handler(signum, frame):
        auto_dump("sigusr2")
        if callable(previous) and previous not in (signal.SIG_IGN,
                                                   signal.SIG_DFL):
            previous(signum, frame)

    signal.signal(signal.SIGUSR2, _handler)
    return True


LAST_EXPLAIN_FILE = "last_explain.json"


def save_last_explain(doc: dict) -> Path | None:
    """Persist the most recent explain record for ``teccl explain --last``.

    Quiet no-op without a configured dump directory (library use must not
    scatter files); best-effort otherwise — serving never fails because a
    status file could not be written.
    """
    directory = dump_dir()
    if directory is None:
        return None
    path = Path(directory) / LAST_EXPLAIN_FILE
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, default=str)
    except OSError:
        return None
    return path


def load_last_explain(directory: str | Path | None = None) -> dict:
    """Read the persisted last-explain document (``teccl explain --last``)."""
    base = Path(directory) if directory is not None else dump_dir()
    if base is None:
        raise ObservabilityError(
            f"no flight directory: pass --flight-dir or export "
            f"{FLIGHT_DIR_ENV}")
    path = base / LAST_EXPLAIN_FILE
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ObservabilityError(
            f"cannot read {path} (no request served with a flight "
            f"directory configured?): {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            f"corrupt last-explain file {path}: {exc}") from exc


def read_dump(path: str | Path) -> list[dict]:
    """Parse a flight-dump JSONL file (header record first)."""
    events = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ObservabilityError(
                        f"corrupt flight dump {path}:{lineno}: {exc}"
                    ) from exc
    except OSError as exc:
        raise ObservabilityError(
            f"cannot read flight dump {path}: {exc}") from exc
    return events


def format_flight(events: list[dict], limit: int | None = None) -> str:
    """Human-readable rendering of a flight dump (or a live snapshot)."""
    lines = []
    header = next((e for e in events if e.get("kind") == "flight_header"),
                  None)
    records = [e for e in events if e.get("kind") != "flight_header"]
    if header is not None:
        lines.append(
            f"flight dump: reason={header.get('reason')} "
            f"pid={header.get('pid')} events={header.get('events')} "
            f"drops={header.get('drops')} total={header.get('total')}")
    t0 = records[0].get("t", 0.0) if records else 0.0
    shown = records if limit is None else records[-limit:]
    lines.append(f"{'+t(s)':>9} {'kind':<9} {'name':<28} "
                 f"{'dur(ms)':>9} ctx/attrs")
    for rec in shown:
        dur = rec.get("dur")
        dur_text = f"{dur * 1e3:9.2f}" if dur is not None else " " * 9
        ctx = rec.get("ctx")
        detail = f"[{ctx[:12]}] " if ctx else ""
        attrs = rec.get("attrs") or {}
        if attrs:
            detail += " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append(f"{rec.get('t', 0.0) - t0:9.3f} "
                     f"{rec.get('kind', '?'):<9} "
                     f"{str(rec.get('name', '?')):<28} {dur_text} "
                     f"{detail}".rstrip())
    if limit is not None and len(records) > limit:
        lines.append(f"... ({len(records) - limit} earlier records "
                     "not shown)")
    return "\n".join(lines)
