"""The observability layer: tracer, metrics registry, exporters.

The concurrency section holds the PR's hardest promise: spans emitted
from the fleet daemon thread, coalesced planner caller threads, and
``ProcessPoolExecutor`` solve workers must land in one JSONL file as
well-formed records with correct parent linkage — including across the
process boundary, where the trace context rides the request dict.
"""

import collections
import json
import math
import os
import threading
import time

import pytest

from repro import collectives, obs, topology
from repro.core import TecclConfig, synthesize
from repro.errors import ObservabilityError
from repro.obs.metrics import prometheus_from_snapshot

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _tracing_disabled():
    """Every test starts and ends in the default state: tracer off,
    a fresh flight ring on."""
    obs.disable()
    obs.configure_recorder()
    yield
    obs.disable()
    obs.configure_recorder()


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestSpan:
    def test_disabled_is_shared_noop(self):
        # "disabled" means every sink off: no tracer, no flight ring
        assert obs.get_tracer() is None
        obs.disable_recorder()
        sp = obs.span("anything", cost="free")
        assert sp is obs.NOOP_SPAN
        with sp as inner:
            assert inner.set_attr(more=1) is inner
        obs.event("ignored")  # no tracer: must not raise

    def test_nesting_and_linkage(self):
        sink = obs.MemorySink()
        obs.configure(sink)
        with obs.span("outer", k=1):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        outer = next(r for r in sink.records if r["name"] == "outer")
        inners = [r for r in sink.records if r["name"] == "inner"]
        assert len(inners) == 2
        for inner in inners:
            assert inner["parent"] == outer["span"]
            assert inner["trace"] == outer["trace"]
        assert outer["parent"] is None
        assert outer["attrs"] == {"k": 1}
        assert outer["v"] == obs.TRACE_SCHEMA_VERSION
        # children close first, so they are recorded first
        assert sink.records[-1] is outer

    def test_duration_is_monotonic_and_positive(self):
        sink = obs.MemorySink()
        obs.configure(sink)
        with obs.span("timed"):
            time.sleep(0.01)
        record = sink.records[0]
        assert record["dur"] >= 0.01
        assert record["t0"] == pytest.approx(time.time(), abs=5.0)

    def test_exception_recorded_and_propagated(self):
        sink = obs.MemorySink()
        obs.configure(sink)
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        assert sink.records[0]["attrs"]["error"] == "ValueError"
        # the contextvar unwound: a new span is a root again
        with obs.span("after"):
            pass
        assert sink.records[-1]["parent"] is None

    def test_set_attr_after_open(self):
        sink = obs.MemorySink()
        obs.configure(sink)
        with obs.span("phase") as sp:
            sp.set_attr(rows=42)
        assert sink.records[0]["attrs"]["rows"] == 42

    def test_event_attaches_to_current_span(self):
        sink = obs.MemorySink()
        obs.configure(sink)
        with obs.span("parent"):
            obs.event("fired", job="j1")
        event = next(r for r in sink.records if r["kind"] == "event")
        parent = next(r for r in sink.records if r["kind"] == "span")
        assert event["span"] == parent["span"]
        assert event["attrs"] == {"job": "j1"}


# span-name multisets of a traced ``synthesize`` on the dgx1 fixtures,
# captured at the commit before span() became the only span API (where
# 4-5 of these were ``rspan`` sites): what was traced then is traced now.
# Since MILPs solve on a session, their backend is loaded under
# ``solver.prepare`` (as an LP's is), no longer through a second compile.
# The symmetric LP is emitted quotient-first: ``lp.build`` writes the
# stem-level template, and neither the full model's constraint families
# nor its compile exist any more (``lp.expand`` builds them when no
# quotient is proved). The MILP is written as the same template:
# ``milp.build`` writes it and ``milp.expand`` builds the model, where
# eight ``milp.family.*`` spans ran one hand-written emitter each. The
# MILP takes no symmetry shortcut any more: the detection, the lex-cut
# proof (``symmetry.reduce`` over a ``solver.compile``) and the cut
# answer's replay (``conformance.check``) are gone from its trace.
_PARENT_LP_SPANS = {
    "conformance.check": 1, "lp.build": 1, "lp.extract": 1,
    "solver.backend": 1, "solver.prepare": 1, "symmetry.detect": 1,
    "symmetry.quotient": 1, "symmetry.reduce": 1, "symmetry.solve": 1,
    "synthesize": 1,
}
_PARENT_MILP_SPANS = {
    "milp.build": 1, "milp.expand": 1, "milp.extract": 1,
    "solver.backend": 1, "solver.prepare": 1, "synthesize": 1,
}


def _dgx1_instance(collective):
    topo = topology.dgx1()
    return topo, collective(topo.gpus, 1), TecclConfig(chunk_bytes=25e3)


class TestSpanSinks:
    """One ``span()``: the tracer, the flight ring and the explain phases
    are three sinks of the same closed span."""

    @pytest.mark.parametrize("collective, method, expected", [
        (collectives.alltoall, "lp", _PARENT_LP_SPANS),
        (collectives.allgather, "milp", _PARENT_MILP_SPANS),
    ], ids=["lp", "milp"])
    def test_traced_span_names_match_parent(self, collective, method,
                                            expected):
        sink = obs.MemorySink()
        obs.configure(sink)
        result = synthesize(*_dgx1_instance(collective))
        obs.disable()
        assert result.method.value == method
        names = collections.Counter(r["name"] for r in sink.records
                                    if r["kind"] == "span")
        assert dict(names) == expected

    def test_default_state_rings_a_bounded_number_of_spans(self):
        """The guard that replaced the two-tier API: a span in a
        per-element loop would blow this count, not a budget knob."""
        assert obs.get_tracer() is None
        ring = obs.configure_recorder()
        synthesize(*_dgx1_instance(collectives.allgather))
        spans = [r for r in ring.snapshot() if r["kind"] == "span"]
        assert 0 < len(spans) <= 40

    @pytest.mark.parametrize("collective, build, model", [
        (collectives.alltoall, "lp.build", "symmetry.reduce"),
        (collectives.allgather, "milp.build", "milp.expand"),
    ], ids=["lp", "milp"])
    def test_explain_phases_cover_build_compile_backend(self, collective,
                                                        build, model):
        # the LP's solved model is its quotient, emitted under
        # symmetry.reduce; the MILP's is the full model, milp.expand
        ring = obs.configure_recorder()
        result = synthesize(*_dgx1_instance(collective))
        phases = result.explain["phases"]
        assert {build, model, "solver.backend"} <= set(phases)
        [total] = [r["dur"] for r in ring.snapshot()
                   if r["name"] == "synthesize"]
        # phases are rounded to the microsecond
        assert all(0.0 <= dur <= total + 1e-6 for dur in phases.values())

    def test_planner_canonicalize_is_on_the_serve_clock(self):
        from repro.service import Planner, PlanRequest

        topo, demand, config = _dgx1_instance(collectives.allgather)
        request = PlanRequest(topology=topo, demand=demand, config=config)
        with Planner(executor="inline") as planner:
            cold = planner.plan(request)
            hit = planner.plan(request)
        assert hit.cache_hit and not cold.cache_hit
        for response in (cold, hit):
            canon = response.explain.phases["planner.canonicalize"]
            assert 0.0 < canon <= response.serve_time
            assert response.explain.serve_time == response.serve_time


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        with obs.span("a"):
            with obs.span("b"):
                pass
        obs.disable()
        events = obs.read_events(path)
        assert [e["name"] for e in events] == ["b", "a"]
        # every line is standalone JSON
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_close_is_idempotent_and_safe(self, tmp_path):
        sink = obs.JsonlSink(tmp_path / "t.jsonl")
        sink.write({"kind": "event"})
        sink.close()
        sink.close()
        sink.write({"kind": "event"})  # after close: dropped, no crash

    def test_unwritable_path_raises(self, tmp_path):
        target = tmp_path / "dir-not-file"
        target.mkdir()
        with pytest.raises(ObservabilityError):
            obs.JsonlSink(target)


class TestCarrier:
    def test_memory_sink_has_no_carrier(self):
        obs.configure(obs.MemorySink())
        assert obs.current_context() is None

    def test_disabled_has_no_carrier(self):
        assert obs.current_context() is None

    def test_jsonl_carrier_names_current_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        with obs.span("submit"):
            ctx = obs.current_context()
        assert ctx["sink"] == str(path)
        assert ctx["span"] is not None
        submit = obs.read_events(path)[0]
        assert ctx["trace"] == submit["trace"]
        assert ctx["span"] == submit["span"]

    def test_activate_stitches_under_remote_parent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        with obs.span("submit"):
            ctx = obs.current_context()
        obs.disable()  # simulate the fresh worker process
        with obs.activate(ctx):
            with obs.span("pool.solve"):
                pass
        # worker tracer stays configured for the next request on purpose
        assert obs.get_tracer() is not None
        events = obs.read_events(path)
        submit = next(e for e in events if e["name"] == "submit")
        solve = next(e for e in events if e["name"] == "pool.solve")
        assert solve["trace"] == submit["trace"]
        assert solve["parent"] == submit["span"]

    def test_activate_none_is_noop(self):
        obs.disable_recorder()
        with obs.activate(None):
            assert obs.span("x") is obs.NOOP_SPAN

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV_VAR, str(path))
        with obs.activate(None):
            with obs.span("from-env"):
                pass
        assert obs.read_events(path)[0]["name"] == "from-env"


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter(self):
        c = obs.Counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_gauge(self):
        g = obs.Gauge("depth")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3

    def test_histogram_quantiles(self):
        h = obs.Histogram("lat", buckets=(1.0, 2.0, 4.0, 8.0))
        for v in (0.5, 1.5, 1.5, 3.0, 6.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(12.5)
        assert 0.5 <= h.quantile(0.0) <= 1.0
        assert 1.0 <= h.quantile(0.5) <= 2.0
        assert h.quantile(1.0) == pytest.approx(6.0)
        summary = h.summary()
        assert set(summary) == {"count", "sum", "p50", "p95", "p99"}

    def test_histogram_rejects_nan_and_bad_buckets(self):
        with pytest.raises(ObservabilityError):
            obs.Histogram("h", buckets=(2.0, 1.0))
        h = obs.Histogram("h")
        with pytest.raises(ObservabilityError):
            h.observe(float("nan"))

    def test_empty_histogram_quantile_is_nan(self):
        assert math.isnan(obs.Histogram("h").quantile(0.5))

    def test_exponential_buckets(self):
        buckets = obs.exponential_buckets(1.0, 2.0, 4)
        assert buckets == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ObservabilityError):
            obs.exponential_buckets(0.0, 2.0, 4)


class TestRegistry:
    def test_get_or_create(self):
        reg = obs.MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        with pytest.raises(ObservabilityError):
            reg.gauge("a_total")

    def test_bad_names_rejected(self):
        reg = obs.MetricsRegistry()
        for bad in ("", "1abc", "has space", "dash-ed"):
            with pytest.raises(ObservabilityError):
                reg.counter(bad)

    def test_prometheus_text(self):
        reg = obs.MetricsRegistry()
        reg.counter("reqs_total", "requests served").inc(3)
        reg.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = reg.prometheus_text()
        assert "# HELP reqs_total requests served" in text
        assert "# TYPE reqs_total counter" in text
        assert "reqs_total 3" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text

    def test_snapshot_round_trips_to_prometheus(self):
        reg = obs.MetricsRegistry()
        reg.counter("a_total").inc(2)
        reg.gauge("depth").set(1.5)
        reg.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.5)
        snapshot = json.loads(json.dumps(reg.snapshot()))
        assert prometheus_from_snapshot(snapshot) == reg.prometheus_text()

    def test_prometheus_from_snapshot_rejects_garbage(self):
        with pytest.raises(ObservabilityError):
            prometheus_from_snapshot({"m": {"type": "unknown"}})
        with pytest.raises(ObservabilityError):
            prometheus_from_snapshot({"m": {"type": "counter"}})


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _span(name, span_id, parent, dur, t0=0.0):
    return {"kind": "span", "v": 1, "name": name, "trace": "t1",
            "span": span_id, "parent": parent, "pid": 1, "tid": 1,
            "t0": t0, "dur": dur, "attrs": {}}


class TestExport:
    def test_corrupt_jsonl_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "span"}\n{"broke', encoding="utf-8")
        with pytest.raises(ObservabilityError):
            obs.read_events(path)

    def test_chrome_trace_shapes(self):
        events = [_span("a", "s1", None, 0.5, t0=1.0),
                  {"kind": "event", "name": "e", "pid": 2, "tid": 3,
                   "t0": 1.2, "attrs": {"x": 1}}]
        trace = obs.chrome_trace(events)
        complete = trace["traceEvents"][0]
        assert complete["ph"] == "X"
        assert complete["dur"] == pytest.approx(0.5e6)
        assert complete["ts"] == pytest.approx(1.0e6)
        instant = trace["traceEvents"][1]
        assert instant["ph"] == "i"
        assert instant["args"] == {"x": 1}

    def test_summarize_coverage(self):
        # root (1.0s) -> mid (0.8s) -> leaf (0.6s); plus leaf2 (0.2s)
        events = [_span("root", "r", None, 1.0),
                  _span("mid", "m", "r", 0.8),
                  _span("leaf", "l", "m", 0.6),
                  _span("leaf2", "l2", "r", 0.2)]
        summary = obs.summarize(events)
        assert summary["coverage"] == pytest.approx(0.8)  # 0.6 + 0.2
        assert summary["phases"]["root"]["self"] == pytest.approx(0.0)
        assert summary["phases"]["mid"]["self"] == pytest.approx(0.2)
        assert summary["roots"][0]["name"] == "root"
        assert summary["num_spans"] == 4

    def test_format_summary_renders(self):
        summary = obs.summarize([_span("root", "r", None, 1.0)])
        text = obs.format_summary(summary)
        assert "root" in text
        assert "coverage" in text


# ----------------------------------------------------------------------
# concurrency: threads, the fleet daemon, and worker processes
# ----------------------------------------------------------------------
def _small_request(tag):
    topo = topology.dgx1()
    return {
        "topology": topo,
        "demand": collectives.allgather(topo.gpus, 1),
        "config": TecclConfig(chunk_bytes=25e3, num_epochs=12),
        "tag": tag,
    }


class TestConcurrency:
    def test_threaded_spans_stay_well_formed(self, tmp_path):
        """Many caller threads, one JSONL file: parseable, correctly
        parented per thread (the contextvar keeps stacks thread-local)."""
        path = tmp_path / "threads.jsonl"
        obs.configure(path)
        n_threads, n_spans = 8, 25

        def worker(i):
            for j in range(n_spans):
                with obs.span("outer", thread=i, j=j):
                    with obs.span("inner", thread=i, j=j):
                        pass

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        obs.disable()
        events = obs.read_events(path)  # raises on any corrupt record
        assert len(events) == n_threads * n_spans * 2
        by_id = {e["span"]: e for e in events}
        for e in events:
            if e["name"] != "inner":
                continue
            parent = by_id[e["parent"]]
            assert parent["name"] == "outer"
            # never adopted by another thread's open span
            assert parent["attrs"]["thread"] == e["attrs"]["thread"]
            assert parent["attrs"]["j"] == e["attrs"]["j"]

    def test_fleet_daemon_thread_spans(self, tmp_path):
        from repro.fleet import (AdaptationController, FleetJob,
                                 SyntheticTelemetry)
        from repro.service import Planner

        path = tmp_path / "fleet.jsonl"
        topo = topology.ring(4, capacity=1.0)
        obs.configure(path)
        with Planner(executor="inline") as planner:
            daemon = AdaptationController(
                topo, SyntheticTelemetry(topo), planner)
            daemon.add_job(FleetJob(
                name="a2a", demand=collectives.alltoall(topo.gpus, 1),
                config=TecclConfig(chunk_bytes=1.0)))
            daemon.start(interval=0.01)
            deadline = time.time() + 5.0
            while daemon.stats()["polls"] < 3 and time.time() < deadline:
                time.sleep(0.01)
            daemon.stop()
        obs.disable()
        events = obs.read_events(path)
        steps = [e for e in events if e["name"] == "fleet.step"]
        assert len(steps) >= 3
        assert all(e["tid"] != threading.get_ident() for e in steps)
        polls = [e for e in events if e["name"] == "fleet.poll"]
        step_ids = {e["span"] for e in steps}
        assert polls and all(e["parent"] in step_ids for e in polls)

    def test_process_pool_stitching(self, tmp_path):
        """The headline: worker-process solve spans append to the same
        file and parent under the submitting request's submit span."""
        from repro.service import Planner, PlanRequest

        path = tmp_path / "pool.jsonl"
        obs.configure(path)
        with Planner(executor="process", max_workers=2) as planner:
            responses = planner.plan_batch(
                [PlanRequest(**_small_request("r0")),
                 PlanRequest(**_small_request("r1"))])
        obs.disable()
        assert all(r.ok for r in responses)
        events = obs.read_events(path)  # raises on any corrupt record
        solves = [e for e in events if e["name"] == "pool.solve"]
        submits = [e for e in events if e["name"] == "planner.submit"]
        # the two identical requests coalesce onto one worker solve
        assert solves and submits
        submit_by_id = {e["span"]: e for e in submits}
        for solve in solves:
            assert solve["pid"] != os.getpid()
            parent = submit_by_id[solve["parent"]]
            assert parent["trace"] == solve["trace"]
            # the worker's own phases nest under its pool.solve
            children = [e for e in events if e["parent"] == solve["span"]]
            assert any(e["name"] == "synthesize" for e in children)
