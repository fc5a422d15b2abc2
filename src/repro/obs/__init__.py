"""Unified observability: tracing, metrics, provenance, flight recorder.

The pieces and how they fit:

* :mod:`repro.obs.trace` — ``span()``, the one way to time a phase: a
  closed span goes to whichever sinks are live (the process-global
  tracer, the flight ring, the explain-phase collector) and is the
  shared ``NOOP_SPAN`` when all are off; carrier-based stitching across
  the solve pool's process boundary;
* :mod:`repro.obs.metrics` — counters/gauges/histograms the legacy
  stats dicts (planner, pool, fleet controller) now sit on;
* :mod:`repro.obs.export` — JSONL → Chrome/Perfetto traces, per-phase
  summaries with leaf coverage, Prometheus text exposition;
* :mod:`repro.obs.recorder` — the always-on flight recorder: a bounded
  ring of every recent span plus event/decision records, dumped to
  JSONL on planner failures, fleet rollbacks, ``SIGUSR2``, firing
  alerts, or ``teccl obs dump``;
* :mod:`repro.obs.explain` — plan provenance records riding every
  ``PlanResponse``/``SynthesisResult`` (``teccl explain``);
* :mod:`repro.obs.alerts` — declarative SLO rules evaluated over
  metrics snapshots plus a small time-series ring
  (``teccl obs alerts``).

Enable tracing for a run::

    from repro import obs
    obs.configure("run.trace.jsonl")
    result = synthesize(topo, demand, config)
    obs.disable()

then ``teccl obs summary --trace run.trace.jsonl`` or
``teccl obs export-trace --trace run.trace.jsonl --output run.json``
(load the output in https://ui.perfetto.dev).
"""

from repro.obs.alerts import (Alert, AlertEngine, AlertRule, SnapshotRing,
                              builtin_rules, flatten_snapshot)
from repro.obs.explain import ExplainRecord, solve_stats_subset
from repro.obs.export import (chrome_trace, format_summary, read_events,
                              summarize, write_chrome_trace)
from repro.obs.metrics import (LATENCY_BUCKETS, Counter, Gauge, Histogram,
                               MetricsRegistry, exponential_buckets,
                               get_registry, prometheus_from_snapshot)
from repro.obs.recorder import (FLIGHT_DIR_ENV, FLIGHT_SCHEMA_VERSION,
                                FlightRecorder, auto_dump,
                                collect_phases, configure_recorder,
                                disable_recorder, dump_dir, format_flight,
                                get_recorder, install_signal_dump,
                                load_last_explain, read_dump,
                                save_last_explain, set_dump_dir)
from repro.obs.recorder import context as recorder_context
from repro.obs.trace import (NOOP_SPAN, TRACE_ENV_VAR, TRACE_SCHEMA_VERSION,
                             JsonlSink, MemorySink, Sink, Span, Tracer,
                             activate, configure, current_context, disable,
                             event, get_tracer, span)

__all__ = [
    # trace
    "Span", "Tracer", "Sink", "JsonlSink", "MemorySink", "NOOP_SPAN",
    "span", "event", "configure", "disable", "get_tracer",
    "current_context", "activate", "TRACE_SCHEMA_VERSION", "TRACE_ENV_VAR",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry",
    "exponential_buckets", "LATENCY_BUCKETS", "prometheus_from_snapshot",
    # export
    "read_events", "chrome_trace", "write_chrome_trace", "summarize",
    "format_summary",
    # flight recorder
    "FlightRecorder", "FLIGHT_SCHEMA_VERSION", "FLIGHT_DIR_ENV",
    "get_recorder", "configure_recorder",
    "disable_recorder", "recorder_context", "collect_phases", "auto_dump",
    "set_dump_dir", "dump_dir", "install_signal_dump", "read_dump",
    "format_flight", "save_last_explain", "load_last_explain",
    # provenance
    "ExplainRecord", "solve_stats_subset",
    # alerts
    "Alert", "AlertRule", "AlertEngine", "SnapshotRing", "builtin_rules",
    "flatten_snapshot",
]
