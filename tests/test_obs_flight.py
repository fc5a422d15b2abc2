"""The flight recorder: ring semantics, dumps, and incident acceptance.

The tentpole contract this file holds:

* the recorder is **always on** and bounded — records ring, drops are
  counted, nothing configures it;
* automatic dumps fire only with a dump directory configured, are
  rate-limited, and never raise;
* a forced planner failure and a fleet rollback each land a JSONL dump
  whose events reconstruct the failing request's provenance (the
  ``planner.serve_failed`` decision event carries the full explain
  record; ring spans are correlated by fingerprint context labels).
"""

import dataclasses
import json
import os
import signal
import time

import pytest

from repro import collectives, obs, topology
from repro.core import TecclConfig
from repro.errors import ModelError, ObservabilityError
from repro.fleet import AdaptationController, LinkEvent, SyntheticTelemetry
from repro.obs import recorder as flight
from repro.obs.explain import ExplainRecord
from repro.service import Planner
from repro.service.pool import SolvePool, solve_request
from repro.service.schema import PlanRequest

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def fresh_recorder(monkeypatch):
    """A clean ring and no dump destination for every test."""
    monkeypatch.delenv(flight.FLIGHT_DIR_ENV, raising=False)
    flight.set_dump_dir(None)
    recorder = flight.configure_recorder()
    yield recorder
    flight.set_dump_dir(None)
    flight.configure_recorder()


def tiny_request(tag="t"):
    topo = topology.ring(4, capacity=1.0)
    return PlanRequest(topology=topo,
                       demand=collectives.alltoall(topo.gpus, 1),
                       config=TecclConfig(chunk_bytes=1.0), tag=tag)


# ----------------------------------------------------------------------
# ring semantics
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_always_on_by_default(self):
        assert flight.wants_spans()

    def test_ring_bounds_and_drop_counter(self):
        recorder = flight.FlightRecorder(capacity=4)
        for i in range(6):
            recorder.record("event", f"e{i}")
        assert recorder.total == 6
        assert recorder.drops == 2
        names = [rec["name"] for rec in recorder.snapshot()]
        assert names == ["e2", "e3", "e4", "e5"]  # oldest evicted

    def test_capacity_validated(self):
        with pytest.raises(ObservabilityError):
            flight.FlightRecorder(capacity=0)

    def test_records_carry_context_label(self, fresh_recorder):
        with flight.context("fp-abc"):
            flight.record("event", "inside")
        flight.record("event", "outside")
        by_name = {rec["name"]: rec for rec in fresh_recorder.snapshot()}
        assert by_name["inside"]["ctx"] == "fp-abc"
        assert by_name["outside"]["ctx"] is None

    def test_collect_phases_accumulates_span_durations(self):
        with flight.collect_phases() as phases:
            with obs.span("phase.a"):
                pass
            with obs.span("phase.a"):
                pass
            with obs.span("phase.b"):
                pass
        assert set(phases) == {"phase.a", "phase.b"}
        assert phases["phase.a"] >= 0.0

    def test_phases_survive_disabled_recorder(self):
        # the phase collector is a sink of its own: with the recorder and
        # the tracer both off, a span inside it is still timed
        flight.disable_recorder()
        assert obs.get_tracer() is None
        with flight.collect_phases() as phases:
            with obs.span("phase.c"):
                pass
        assert "phase.c" in phases

    def test_span_is_noop_when_all_disabled(self):
        from repro.obs.trace import NOOP_SPAN

        flight.disable_recorder()
        assert obs.get_tracer() is None
        assert obs.span("anything") is NOOP_SPAN

    def test_span_rings_without_tracer(self, fresh_recorder):
        assert obs.get_tracer() is None
        with obs.span("any.site", probe=7) as sp:
            pass
        # recorder-only spans mint no ids
        assert sp.span_id == "" and sp.trace_id == ""
        [rec] = fresh_recorder.snapshot()
        assert rec["kind"] == "span"
        assert rec["name"] == "any.site"
        assert rec["attrs"]["probe"] == 7
        assert rec["dur"] >= 0.0

    def test_span_rings_and_traces_with_tracer(self, fresh_recorder):
        sink = obs.MemorySink()
        obs.configure(sink)
        try:
            with obs.span("both.paths"):
                pass
        finally:
            obs.disable()
        assert any(r.get("name") == "both.paths" for r in sink.records)
        assert any(rec["name"] == "both.paths"
                   for rec in fresh_recorder.snapshot())

    def test_span_marks_error_exits(self, fresh_recorder):
        with pytest.raises(ValueError):
            with obs.span("boom.site"):
                raise ValueError("x")
        [rec] = fresh_recorder.snapshot()
        assert rec["attrs"]["error"] == "ValueError"


# ----------------------------------------------------------------------
# dumps
# ----------------------------------------------------------------------
class TestDumps:
    def test_dump_roundtrip(self, fresh_recorder, tmp_path):
        flight.record("event", "one", attrs={"k": 1})
        with obs.span("two"):
            pass
        path = fresh_recorder.dump(tmp_path / "flight.jsonl",
                                   reason="manual")
        events = flight.read_dump(path)
        header, *records = events
        assert header["kind"] == "flight_header"
        assert header["v"] == flight.FLIGHT_SCHEMA_VERSION
        assert header["reason"] == "manual"
        assert header["events"] == len(records) == 2
        assert [rec["name"] for rec in records] == ["one", "two"]
        text = flight.format_flight(events)
        assert "reason=manual" in text
        assert "two" in text

    def test_dump_without_destination_raises(self, fresh_recorder):
        with pytest.raises(ObservabilityError):
            fresh_recorder.dump()

    def test_dump_names_file_from_dir_and_reason(self, fresh_recorder,
                                                 tmp_path):
        flight.set_dump_dir(tmp_path)
        path = fresh_recorder.dump(reason="testing")
        assert path.parent == tmp_path
        assert path.name.startswith("flight-testing-")

    def test_auto_dump_silent_without_dir(self, fresh_recorder):
        assert flight.auto_dump("incident") is None

    def test_auto_dump_rate_limited_per_reason(self, fresh_recorder,
                                               tmp_path):
        flight.set_dump_dir(tmp_path)
        first = flight.auto_dump("storm")
        second = flight.auto_dump("storm")  # inside the interval
        other = flight.auto_dump("different")
        assert first is not None
        assert second is None
        assert other is not None

    def test_auto_dump_process_cap(self, tmp_path):
        recorder = flight.FlightRecorder()
        flight.set_dump_dir(tmp_path)
        recorder._auto_dumps = flight.MAX_AUTO_DUMPS
        assert recorder.auto_dump("capped") is None

    def test_env_var_names_dump_dir(self, fresh_recorder, tmp_path,
                                    monkeypatch):
        monkeypatch.setenv(flight.FLIGHT_DIR_ENV, str(tmp_path / "envdir"))
        path = flight.auto_dump("via-env")
        assert path is not None and path.parent == tmp_path / "envdir"

    def test_sigusr2_dumps_the_ring(self, fresh_recorder, tmp_path):
        flight.set_dump_dir(tmp_path)
        flight.record("event", "before-signal")
        previous = signal.getsignal(signal.SIGUSR2)
        try:
            assert flight.install_signal_dump()
            os.kill(os.getpid(), signal.SIGUSR2)
        finally:
            signal.signal(signal.SIGUSR2, previous)
        dumps = list(tmp_path.glob("flight-sigusr2-*.jsonl"))
        assert len(dumps) == 1
        events = flight.read_dump(dumps[0])
        assert any(rec.get("name") == "before-signal" for rec in events)

    def test_last_explain_roundtrip(self, tmp_path):
        assert flight.save_last_explain({"source": "cache"}) is None
        flight.set_dump_dir(tmp_path)
        path = flight.save_last_explain({"source": "cache", "tag": "x"})
        assert path is not None
        assert flight.load_last_explain(tmp_path)["tag"] == "x"

    def test_load_last_explain_without_dir_raises(self):
        with pytest.raises(ObservabilityError):
            flight.load_last_explain()


# ----------------------------------------------------------------------
# bounded MemorySink (satellite)
# ----------------------------------------------------------------------
class TestMemorySinkBound:
    def test_default_capacity_bounded(self):
        sink = obs.MemorySink()
        assert sink.capacity == obs.MemorySink.DEFAULT_CAPACITY

    def test_cap_evicts_oldest_and_counts_drops(self):
        sink = obs.MemorySink(capacity=3)
        for i in range(5):
            sink.write({"kind": "span", "i": i})
        assert [r["i"] for r in sink.records] == [2, 3, 4]
        assert sink.dropped == 2

    def test_unbounded_when_capacity_none(self):
        sink = obs.MemorySink(capacity=None)
        for i in range(5):
            sink.write({"i": i})
        assert len(sink.records) == 5
        assert sink.dropped == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ObservabilityError):
            obs.MemorySink(capacity=0)


# ----------------------------------------------------------------------
# acceptance: a forced planner failure dumps a reconstructable record
# ----------------------------------------------------------------------
def _boom(request_dict):
    raise ModelError("forced failure for the flight recorder")


class TestPlannerFailureDump:
    def test_error_response_dumps_explain(self, tmp_path):
        flight.set_dump_dir(tmp_path)
        pool = SolvePool(executor="inline", solve_fn=_boom)
        with Planner(pool=pool) as planner:
            [response] = planner.plan_batch([tiny_request("doomed")])
        assert not response.ok
        assert response.explain.source == "error"
        assert "forced failure" in response.explain.error

        [dump] = tmp_path.glob("flight-planner-failure-*.jsonl")
        events = flight.read_dump(dump)
        [failed] = [rec for rec in events
                    if rec.get("name") == "planner.serve_failed"]
        record = ExplainRecord.from_dict(failed["attrs"]["explain"])
        assert record.source == "error"
        assert record.fingerprint == response.fingerprint
        assert record.tag == "doomed"
        assert "forced failure" in record.error
        # finish-side records are correlated by the request fingerprint
        # the planner stamped as the flight context
        assert failed["ctx"] == response.fingerprint

    def test_raise_path_also_dumps(self, tmp_path):
        flight.set_dump_dir(tmp_path)
        pool = SolvePool(executor="inline", solve_fn=_boom)
        with Planner(pool=pool) as planner:
            with pytest.raises(ModelError):
                planner.plan(tiny_request("raiser"))
        dumps = list(tmp_path.glob("flight-planner-failure-*.jsonl"))
        assert len(dumps) == 1

    def test_success_records_last_explain(self, tmp_path):
        flight.set_dump_dir(tmp_path)
        with Planner(executor="inline") as planner:
            response = planner.plan(tiny_request("fine"))
        doc = flight.load_last_explain(tmp_path)
        record = ExplainRecord.from_dict(doc)
        assert record.fingerprint == response.fingerprint
        assert record.source == "solve"
        assert not list(tmp_path.glob("flight-planner-failure-*"))


# ----------------------------------------------------------------------
# the explain document: built from the fields, as asdict built it
# ----------------------------------------------------------------------
def _asdict_document(record):
    """``ExplainRecord.to_dict`` as written over ``dataclasses.asdict``:
    a deep copy, then ``phases`` and ``solve`` replaced by shallow ones."""
    doc = dataclasses.asdict(record)
    doc["phases"] = dict(record.phases)
    if record.solve is not None:
        doc["solve"] = dict(record.solve)
    return doc


def _served_records():
    """One planner explain record per source, and a bare one."""
    records = {"bare": ExplainRecord(tag="bare")}
    with Planner(executor="inline") as planner:
        records["solve"] = planner.plan(tiny_request()).explain
        records["cache"] = planner.plan(tiny_request()).explain

    def solve_after_its_twin(request_dict):
        deadline = time.monotonic() + 30
        while pool.stats.coalesced < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        return solve_request(request_dict)

    pool = SolvePool(max_workers=1, executor="thread",
                     solve_fn=solve_after_its_twin)
    try:
        with Planner(pool=pool) as planner:
            _, twin = planner.plan_batch([tiny_request(), tiny_request()])
    finally:
        pool.shutdown()
    records["coalesced"] = twin.explain
    with Planner(pool=SolvePool(executor="inline", solve_fn=_boom)) \
            as planner:
        [failed] = planner.plan_batch([tiny_request("doomed")])
    records["error"] = failed.explain
    return records


class TestExplainDocument:
    def test_document_is_the_asdict_document(self):
        records = _served_records()
        assert {source: record.source for source, record in records.items()
                if source != "bare"} == {"solve": "solve", "cache": "cache",
                                         "coalesced": "coalesced",
                                         "error": "error"}
        for source, record in records.items():
            doc, oracle = record.to_dict(), _asdict_document(record)
            assert doc == oracle, source
            assert json.dumps(doc) == json.dumps(oracle), source  # order
            assert doc["phases"] is not record.phases
            if record.solve is None:
                assert source in ("bare", "error") and doc["solve"] is None
                continue
            # a shallow copy: the nested dicts are the record's own
            assert doc["solve"] is not record.solve
            assert {key: id(value) for key, value in doc["solve"].items()} \
                == {key: id(value) for key, value in record.solve.items()} \
                == {key: id(value) for key, value in oracle["solve"].items()}
            assert isinstance(doc["solve"]["stats"], dict), source

    def test_last_explain_bytes_are_the_asdict_bytes(self, tmp_path):
        flight.set_dump_dir(tmp_path)
        with Planner(executor="inline") as planner:
            for _ in range(2):  # a fresh solve, then a hit
                response = planner.plan(tiny_request("fine"))
                written = (tmp_path / flight.LAST_EXPLAIN_FILE).read_text(
                    encoding="utf-8")
                assert written == json.dumps(
                    _asdict_document(response.explain), indent=2,
                    default=str)
        assert response.cache_hit

    def test_error_event_carries_the_full_record(self, fresh_recorder):
        with Planner(pool=SolvePool(executor="inline", solve_fn=_boom)) \
                as planner:
            [response] = planner.plan_batch([tiny_request("doomed")])
        [failed] = [rec for rec in fresh_recorder.snapshot()
                    if rec["name"] == "planner.serve_failed"]
        assert failed["attrs"]["explain"] \
            == _asdict_document(response.explain)
        assert failed["attrs"]["explain"]["source"] == "error"


# ----------------------------------------------------------------------
# acceptance: a fleet rollback dumps, and the rollback SLO fires
# ----------------------------------------------------------------------
class CorruptingPlanner(Planner):
    """Claims a finish time the conformance replay cannot reproduce."""

    corrupt = False

    def plan_batch(self, requests, *, timeout=None):
        responses = super().plan_batch(requests, timeout=timeout)
        if self.corrupt:
            for response in responses:
                response.result = dataclasses.replace(
                    response.result,
                    finish_time=response.result.finish_time / 2)
        return responses


class TestFleetRollbackDump:
    def test_rollback_dumps_and_alert_fires(self, tmp_path):
        flight.set_dump_dir(tmp_path)
        topo = topology.ring(4, capacity=1.0)
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=1.0, link=(0, 1), factor=0.4)])
        from repro.fleet import FleetJob

        with CorruptingPlanner(executor="inline") as planner:
            daemon = AdaptationController(topo, source, planner)
            daemon.add_job(FleetJob(
                name="a2a", demand=collectives.alltoall(topo.gpus, 1),
                config=TecclConfig(chunk_bytes=1.0)))
            planner.corrupt = True
            for _ in range(4):
                daemon.step()
            stats = daemon.stats()
            status = daemon.status()
        assert stats["rollbacks"] >= 1

        [dump] = tmp_path.glob("flight-fleet-rollback-*.jsonl")
        events = flight.read_dump(dump)
        rollbacks = [rec for rec in events
                     if rec.get("name") == "fleet.rollback"]
        assert rollbacks and rollbacks[0]["attrs"]["job"] == "a2a"
        assert rollbacks[0]["attrs"]["reason"] == "conformance"
        # the ring reconstructs the failing replan: its serve spans are
        # correlated to the rollback by the request fingerprint context
        assert any(rec.get("ctx") for rec in events
                   if rec.get("kind") == "span")

        # the rollback counter trips the built-in SLO on the same step,
        # and the newly-firing edge produced an alert dump too
        firing = {alert["name"] for alert in status["alerts"]}
        assert "fleet_rollbacks" in firing
        assert list(tmp_path.glob("flight-alert-*.jsonl"))
