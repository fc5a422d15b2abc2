"""Structured tracing: nested spans, thread-safe, process-aware.

The tracer answers the question the ROADMAP cannot: *where* do the
12.3 seconds of solve time on Internal1 AtoA go?  Every phase in the
solver, planner, and fleet layers opens a :func:`span` — the only way
to time a phase, as :func:`event` is the only way to log one.  A closed
span is handed to whichever of three sinks are live:

* the **tracer**, when one is configured: one JSONL record (trace/span
  ids, parent linkage) that the exporters in :mod:`repro.obs.export`
  turn into a Chrome/Perfetto trace or a per-phase summary;
* the **flight ring** (:mod:`repro.obs.recorder`), on by default;
* the active ``collect_phases`` accumulator — the ``phases`` of an
  explain record.

Design constraints, in order:

* **cheap by default, free when off** — the default state is recorder
  on, tracer off: a span is two clock reads and one ring append, and
  mints no ids (``uuid4`` runs only under a configured tracer).  With
  the tracer *and* the recorder off and no phase collector active,
  ``span(...)`` returns the shared ``NOOP_SPAN``: nothing is allocated,
  no clock is read.  No call site chooses a sink and there is no filter
  (:mod:`repro.obs.recorder` has the per-solve span counts that make
  that affordable; ``benchmarks/bench_obs_overhead.py`` holds them).
* **thread-safe** — the fleet daemon thread, coalesced planner callers,
  and solve-pool worker threads all emit concurrently.  The current-span
  stack lives in a :class:`contextvars.ContextVar` (per-thread by
  construction) and sinks serialise each record to one atomic write.
* **process-aware** — a solve submitted to a ``ProcessPoolExecutor``
  runs in a worker with no tracer configured.  :meth:`Tracer.carrier`
  captures ``(trace id, span id, sink path)``; the planner rides it
  along in the request dict and the worker calls :func:`activate` to
  stitch its spans back under the submitting request's trace.  Worker
  processes append to the same JSONL file through ``O_APPEND`` writes
  (one ``os.write`` per record), so streams from any number of
  processes interleave without corrupting records.

Timing is monotonic (``time.perf_counter``) for durations; each record
additionally carries a wall-clock start so cross-process spans order
correctly in a rendered trace.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
import uuid
from pathlib import Path

from repro.errors import ObservabilityError
from repro.obs import recorder as _flight

#: bump when the span-record layout changes (exporters check it)
TRACE_SCHEMA_VERSION = 1

#: environment variable workers honour when no carrier context arrives
TRACE_ENV_VAR = "TECCL_TRACE"

# (trace_id, span_id) of the innermost open span on this thread
_current: contextvars.ContextVar[tuple[str, str] | None] = \
    contextvars.ContextVar("teccl_obs_current", default=None)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class Sink:
    """Where span records go.  Implementations must be thread-safe."""

    def write(self, record: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (optional)."""


class MemorySink(Sink):
    """Collects records in a bounded list — tests and short-lived runs.

    A long-lived daemon that configures tracing with no file sink must
    not grow without limit: past ``capacity`` records the oldest are
    evicted and counted in :attr:`dropped`. The default cap is generous
    for test-sized traces; pass ``capacity=None`` for the historical
    unbounded behaviour.
    """

    DEFAULT_CAPACITY = 100_000

    def __init__(self, capacity: int | None = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity < 1:
            raise ObservabilityError(
                f"MemorySink capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.records: list[dict] = []
        self.dropped = 0
        self._lock = threading.Lock()

    def write(self, record: dict) -> None:
        with self._lock:
            self.records.append(record)
            if self.capacity is not None and \
                    len(self.records) > self.capacity:
                excess = len(self.records) - self.capacity
                del self.records[:excess]
                self.dropped += excess


class JsonlSink(Sink):
    """Append-only JSONL file, one record per line.

    Each record is serialised to a single line and written with one
    ``os.write`` on an ``O_APPEND`` descriptor: POSIX guarantees the
    kernel performs the append atomically, so concurrent writers — the
    fleet daemon thread, planner callers, and solve-pool *worker
    processes* holding their own descriptors on the same path — never
    interleave bytes within a record.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._fd = os.open(str(self.path),
                               os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                               0o644)
        except OSError as exc:
            raise ObservabilityError(
                f"cannot open trace sink {self.path}: {exc}") from exc
        self._lock = threading.Lock()

    def write(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            if self._fd is None:
                return
            os.write(self._fd, data)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Span:
    """One timed phase.  Use as a context manager via :func:`span`."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "_tracer", "_t0_wall", "_t0", "duration", "_token")

    def __init__(self, tracer: "Tracer | None", name: str,
                 attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self._tracer = tracer
        self.trace_id = ""
        # ids exist for the trace file's parent linkage only
        self.span_id = _new_id() if tracer is not None else ""
        self.parent_id: str | None = None
        self._t0_wall = 0.0
        self._t0 = 0.0
        self.duration = 0.0
        self._token = None

    def set_attr(self, **attrs) -> "Span":
        """Attach attributes after the span has opened (e.g. a result)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            parent = _current.get()
            if parent is not None:
                self.trace_id, self.parent_id = parent
            else:
                self.trace_id = tracer._trace_id
                self.parent_id = tracer._root_parent
            self._token = _current.set((self.trace_id, self.span_id))
        self._t0_wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer = self._tracer
        if tracer is not None:
            _current.reset(self._token)
            tracer.emit({
                "kind": "span",
                "v": TRACE_SCHEMA_VERSION,
                "name": self.name,
                "trace": self.trace_id,
                "span": self.span_id,
                "parent": self.parent_id,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "t0": self._t0_wall,
                "dur": self.duration,
                "attrs": self.attrs,
            })
        _flight.note_span(self.name, self._t0_wall, self.duration,
                          self.attrs)
        return False


class _NoopSpan:
    """The shared do-nothing span handed out when every sink is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, **attrs) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Emits spans into a sink; one per process is the intended shape.

    Args:
        sink: where records go.  A ``str``/``Path`` becomes a
            :class:`JsonlSink`; ``None`` keeps records in a fresh
            :class:`MemorySink`.
    """

    def __init__(self, sink: Sink | str | Path | None = None) -> None:
        if sink is None:
            sink = MemorySink()
        elif isinstance(sink, (str, Path)):
            sink = JsonlSink(sink)
        self.sink = sink
        self._trace_id = _new_id()
        # parent inherited from a carrier (worker-process stitching)
        self._root_parent: str | None = None

    def emit(self, record: dict) -> None:
        self.sink.write(record)

    def event(self, name: str, **attrs) -> None:
        """A zero-duration log record (the structured ``print``)."""
        current = _current.get()
        self.emit({
            "kind": "event", "v": TRACE_SCHEMA_VERSION, "name": name,
            "trace": current[0] if current else self._trace_id,
            "span": current[1] if current else None,
            "pid": os.getpid(), "tid": threading.get_ident(),
            "t0": time.time(), "attrs": attrs,
        })

    def carrier(self) -> dict | None:
        """Propagation payload for crossing a process boundary.

        ``None`` when there is nothing durable to stitch to (a memory
        sink cannot be shared with another process).
        """
        if not isinstance(self.sink, JsonlSink):
            return None
        current = _current.get()
        return {
            "trace": current[0] if current else self._trace_id,
            "span": current[1] if current else None,
            "sink": str(self.sink.path),
        }


# ----------------------------------------------------------------------
# the module-global tracer (the zero-overhead switch)
# ----------------------------------------------------------------------
_tracer: Tracer | None = None
_configure_lock = threading.Lock()


def get_tracer() -> Tracer | None:
    """The process's tracer, or ``None`` when tracing is disabled."""
    return _tracer


def configure(sink: Sink | str | Path | None = None) -> Tracer:
    """Enable tracing process-wide; returns the (new) tracer.

    Calling again replaces the tracer (the previous sink is closed when
    it was created here).  Instrumented code observes the change
    immediately — ``span()`` reads the module global on every call.
    """
    global _tracer
    with _configure_lock:
        old = _tracer
        _tracer = Tracer(sink)
        if old is not None:
            old.sink.close()
        return _tracer


def disable() -> None:
    """Turn the tracer off (spans still reach the flight ring)."""
    global _tracer
    with _configure_lock:
        old, _tracer = _tracer, None
        if old is not None:
            old.sink.close()


def span(name: str, **attrs):
    """Time a phase: the closed span goes to every live sink — the
    tracer, the flight ring, the active phase collector.

    With all three off this is two loads and the shared ``NOOP_SPAN``.
    Keyword attributes must stay cheap to evaluate at every call site
    (pass scalars, not renders), and a span must never sit in a
    per-element loop: the ring holds every one.
    """
    tracer = _tracer
    if tracer is None and not _flight.wants_spans():
        return NOOP_SPAN
    return Span(tracer, name, attrs)


def event(name: str, **attrs) -> None:
    """Emit a structured log event (no-op when disabled).

    Events additionally land in the always-on flight recorder: they are
    rare, decision-shaped records (rollbacks, evictions, recovery
    drops) — exactly what a post-incident dump should contain.
    """
    _flight.record("event", name, attrs if attrs else None)
    tracer = _tracer
    if tracer is not None:
        tracer.event(name, **attrs)


def current_context() -> dict | None:
    """The active carrier (for handing work to another process)."""
    tracer = _tracer
    if tracer is None:
        return None
    return tracer.carrier()


class _Activation:
    """Context manager stitching a worker's spans under a remote parent."""

    def __init__(self, ctx: dict | None) -> None:
        self._ctx = ctx
        self._token = None

    def __enter__(self):
        ctx = self._ctx
        if ctx is None:
            return self
        global _tracer
        with _configure_lock:
            if _tracer is None and ctx.get("sink"):
                _tracer = Tracer(ctx["sink"])
        if _tracer is not None and ctx.get("trace"):
            _tracer._trace_id = ctx["trace"]
            _tracer._root_parent = ctx.get("span")
            self._token = _current.set((ctx["trace"], ctx.get("span")))
        return self

    def __exit__(self, *exc_info) -> bool:
        if self._token is not None:
            _current.reset(self._token)
        # a tracer configured for one stitched request stays configured:
        # pool workers are long-lived and serve many requests for the
        # same sink; closing per-request would thrash descriptors
        return False


def activate(ctx: dict | None) -> _Activation:
    """Adopt a carrier from another process (see :meth:`Tracer.carrier`).

    Inside the returned context, new spans parent under the carrier's
    span id and share its trace id.  When this process has no tracer but
    the carrier names a sink path, a tracer is configured to append
    there — this is how ``ProcessPoolExecutor`` workers join the
    submitting process's trace file.  A ``None`` carrier (or one from an
    in-memory sink) makes the whole thing a no-op.
    """
    if ctx is None and _tracer is None:
        env = os.environ.get(TRACE_ENV_VAR)
        if env:
            ctx = {"sink": env}
    return _Activation(ctx)
