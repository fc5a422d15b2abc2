"""Write-ahead persistence: framing, leases, recovery, round-trips.

The durability *unit* surface lives here (tier-1 fleet lane): WAL framing
and torn-tail truncation, generation-lease fencing, snapshot compaction,
in-process recovery semantics, and the satellite-mandated serialization
audit — every ``to_dict``/``from_dict`` (and ``to_wire``/``from_wire``)
pair the WAL depends on must be equality-stable for randomized instances.
The out-of-process SIGKILL crash sweep is ``test_fleet_recovery.py``
(``durability`` marker).
"""

import dataclasses
import json
import os
import random

import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.solve import Method, synthesize
from repro.errors import FleetError, ServiceError
from repro.fleet import (AdaptationController, FleetJob, FleetOrchestrator,
                         GenerationLease, LinkEvent, LinkHealth, LinkSample,
                         SyntheticTelemetry, WriteAheadLog,
                         atomic_write_json)
from repro.fleet.controller import AdaptationDecision, RegistryEntry, \
    ScheduleRegistry, ScheduleStatus
from repro.service import Planner
from repro.service.schema import PlanRequest, PlanResponse, \
    check_registry_state

pytestmark = pytest.mark.fleet


def tiny_ring(n=4):
    return topology.ring(n, capacity=1.0)


def a2a_job(topo, name="a2a", chunks=1, priority=1.0):
    return FleetJob(name=name,
                    demand=collectives.alltoall(topo.gpus, chunks),
                    config=TecclConfig(chunk_bytes=1.0 / chunks),
                    priority=priority)


@pytest.fixture
def planner():
    with Planner(executor="inline") as p:
        yield p


def make_controller(topo, planner, walpath, *, events=(), takeover=False,
                    compact_every=256):
    from repro.fleet import FabricEstimator

    source = SyntheticTelemetry(topo, events=list(events))
    wal = WriteAheadLog(walpath)
    wal.attach_lease(takeover=takeover)
    # smoothing=1.0 / min_samples=1 make the estimator memoryless given
    # the transition records, so recovery is exact (see the WAL docs)
    estimator = FabricEstimator(topo, smoothing=1.0, min_samples=1)
    return AdaptationController(topo, source, planner, wal=wal,
                                estimator=estimator,
                                compact_every=compact_every)


# ----------------------------------------------------------------------
# atomic JSON writes (satellite: --status-file)
# ----------------------------------------------------------------------
class TestAtomicWriteJson:
    def test_writes_valid_json_and_no_tmp_residue(self, tmp_path):
        target = tmp_path / "status.json"
        atomic_write_json(target, {"a": 1})
        assert json.loads(target.read_text(encoding="utf-8")) == {"a": 1}
        atomic_write_json(target, {"a": 2})
        assert json.loads(target.read_text(encoding="utf-8")) == {"a": 2}
        assert list(tmp_path.iterdir()) == [target]

    def test_replaces_never_truncates(self, tmp_path):
        # the old document stays intact until the rename lands
        target = tmp_path / "status.json"
        atomic_write_json(target, {"generation": 1})
        atomic_write_json(target, {"generation": 2})
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["generation"] == 2


# ----------------------------------------------------------------------
# framing and torn tails
# ----------------------------------------------------------------------
class TestWalFraming:
    def test_append_load_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.wal")
        wal.append("begin", {"op": "step", "index": 0}, now=1.5)
        wal.append("commit", {"op": "step", "index": 0}, now=1.5)
        wal.close()
        state = WriteAheadLog(tmp_path / "w.wal").load()
        assert [r["kind"] for r in state.records] == ["begin", "commit"]
        assert state.records[0]["data"] == {"op": "step", "index": 0}
        assert state.records[0]["now"] == 1.5
        assert state.records[0]["seq"] == 1
        assert state.uncommitted == [] and state.torn_bytes == 0

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = WriteAheadLog(path)
        wal.append("begin", {"op": "step", "index": 0})
        wal.append("commit", {"op": "step", "index": 0})
        wal.close()
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"000000ffdeadbeef {\"seq\": 3, \"tru")  # torn
        state = WriteAheadLog(path).load()
        assert len(state.records) == 2
        assert state.torn_bytes > 0
        # appending truncates the torn tail away first
        wal2 = WriteAheadLog(path)
        wal2.append("begin", {"op": "step", "index": 1})
        wal2.close()
        records = WriteAheadLog(path).load().uncommitted
        assert [r["kind"] for r in records] == ["begin"]
        assert records[0]["seq"] == 3  # seq resumed, not restarted
        assert path.stat().st_size > intact

    def test_checksum_mismatch_stops_the_scan(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = WriteAheadLog(path)
        wal.append("commit", {"op": "step", "index": 0})
        wal.append("commit", {"op": "step", "index": 1})
        wal.close()
        raw = bytearray(path.read_bytes())
        flip = raw.index(b'"index":0') + 8  # corrupt the first body
        raw[flip] ^= 0xFF
        path.write_bytes(bytes(raw))
        state = WriteAheadLog(path).load()
        assert state.records == []  # nothing after the bad frame is trusted

    def test_missing_file_is_empty_state(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "absent.wal")
        state = wal.load()
        assert state.snapshot is None and state.records == []
        assert not wal.has_state()

    def test_aborted_transaction_mid_log_is_discarded(self, tmp_path):
        # an admission that failed and was compensated (abort marker)
        # must not be replayed even though a later operation committed
        path = tmp_path / "w.wal"
        wal = WriteAheadLog(path)
        wal.append("begin", {"op": "admit", "job": "ghost"})
        wal.append("job_admit", {"name": "ghost"})
        wal.append("abort", {"op": "admit", "job": "ghost"})
        wal.append("begin", {"op": "step", "index": 0})
        wal.append("commit", {"op": "step", "index": 0})
        wal.close()
        state = WriteAheadLog(path).load()
        assert [r["kind"] for r in state.records] == ["begin", "commit"]
        assert [r["kind"] for r in state.uncommitted] \
            == ["begin", "job_admit", "abort"]

    def test_unmatched_begin_mid_log_is_discarded(self, tmp_path):
        # a fenced writer cannot even append its abort marker; the buried
        # open transaction is detected by the next begin and discarded
        path = tmp_path / "w.wal"
        wal = WriteAheadLog(path)
        wal.append("begin", {"op": "admit", "job": "ghost"})
        wal.append("job_admit", {"name": "ghost"})
        wal.append("begin", {"op": "step", "index": 0})
        wal.append("commit", {"op": "step", "index": 0})
        wal.close()
        state = WriteAheadLog(path).load()
        assert [r["kind"] for r in state.records] == ["begin", "commit"]
        assert [r["kind"] for r in state.uncommitted] \
            == ["begin", "job_admit"]


# ----------------------------------------------------------------------
# generation leases (fencing)
# ----------------------------------------------------------------------
class TestGenerationLease:
    def test_takeover_bumps_generation_and_fences(self, tmp_path):
        path = tmp_path / "w.wal"
        old = WriteAheadLog(path)
        assert old.attach_lease() == 1
        old.append("begin", {"op": "step", "index": 0})
        new = WriteAheadLog(path)
        assert new.attach_lease(takeover=True) == 2
        assert old.fenced() and not new.fenced()
        with pytest.raises(FleetError, match="fenced"):
            old.append("commit", {"op": "step", "index": 0})
        with pytest.raises(FleetError, match="fenced"):
            old.compact({"registry_state_version": 1})
        new.append("begin", {"op": "step", "index": 0})  # the winner writes

    def test_live_holder_refused_without_takeover(self, tmp_path):
        lease = GenerationLease(tmp_path / "l.lease")
        atomic_write_json(lease.path, {"generation": 7, "pid": 1})  # init
        with pytest.raises(FleetError, match="--takeover"):
            lease.acquire()
        assert lease.acquire(takeover=True) == 8

    def test_dead_holder_reacquired_without_takeover(self, tmp_path):
        lease = GenerationLease(tmp_path / "l.lease")
        # a pid that cannot exist: max_pid is bounded well below 2**31
        atomic_write_json(lease.path, {"generation": 3, "pid": 2**31 - 7})
        assert lease.acquire() == 4

    def test_fence_lost_during_append_leaves_no_record(self, tmp_path):
        # a takeover landing between append's pre-check and its fsync is
        # caught by the post-fsync re-check: the already-durable record
        # is truncated back off and the append still raises
        path = tmp_path / "w.wal"
        old = WriteAheadLog(path)
        old.attach_lease()
        old.append("begin", {"op": "step", "index": 0})
        old.append("commit", {"op": "step", "index": 0})
        new = WriteAheadLog(path)
        real_fenced = old.fenced
        state = {"first": True}

        def fenced():
            if state["first"]:  # the pre-check: lease not yet bumped
                state["first"] = False
                new.attach_lease(takeover=True)
                return False
            return real_fenced()

        old.fenced = fenced
        with pytest.raises(FleetError, match="fenced"):
            old.append("activate", {"job": "a2a", "seq": 1})
        records = WriteAheadLog(path).load().records
        assert [r["kind"] for r in records] == ["begin", "commit"]
        old.close()

    def test_release_only_by_owner(self, tmp_path):
        path = tmp_path / "l.lease"
        a, b = GenerationLease(path), GenerationLease(path)
        a.acquire()
        b.acquire(takeover=True)
        a.release()  # a no longer owns it: must not delete b's lease
        assert b.check()
        b.release()
        assert not path.exists()


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------
class TestCompaction:
    def test_compact_snapshots_then_truncates(self, tmp_path, planner):
        topo = tiny_ring()
        daemon = make_controller(topo, planner, tmp_path / "w.wal")
        daemon.add_job(a2a_job(topo))
        daemon.step()
        wal = daemon.wal
        assert wal.records_written > 0
        wal.compact(daemon.registry_state())
        assert wal.snapshot_path.exists()
        state = WriteAheadLog(wal.path).load()
        assert state.records == []  # log truncated
        check_registry_state(state.snapshot)  # snapshot is trustworthy
        wal.close()

    def test_compact_refuses_malformed_state(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.wal")
        with pytest.raises(ServiceError):
            wal.compact({"registry_state_version": 999})
        assert not wal.snapshot_path.exists()

    def test_controller_compacts_periodically(self, tmp_path, planner):
        topo = tiny_ring()
        daemon = make_controller(topo, planner, tmp_path / "w.wal",
                                 compact_every=4)
        daemon.add_job(a2a_job(topo))  # 5 records >= 4: compacts
        assert daemon.wal.compactions >= 1
        for _ in range(3):
            daemon.step()
        assert daemon.wal.compactions >= 2
        daemon.wal.close()


# ----------------------------------------------------------------------
# recovery semantics (in-process; the SIGKILL sweep is out-of-process)
# ----------------------------------------------------------------------
class TestRecovery:
    def test_recover_rehydrates_jobs_schedules_and_clocks(
            self, tmp_path, planner):
        topo = tiny_ring()
        events = [LinkEvent(at=2.0, link=(0, 1), factor=0.4)]
        daemon = make_controller(topo, planner, tmp_path / "w.wal",
                                 events=events)
        daemon.add_job(a2a_job(topo))
        for _ in range(5):
            daemon.step()
        before = daemon.registry.active("a2a")
        est_before = daemon.estimator.estimate((0, 1))
        daemon.wal.close()

        fresh = make_controller(topo, planner, tmp_path / "w.wal",
                                takeover=True)
        provenance = fresh.recover()
        assert provenance["recovered"] and provenance["generation"] == 2
        assert provenance["entries_recovered"] == 1
        assert provenance["entries_dropped"] == []
        after = fresh.registry.active("a2a")
        assert after is not None and after.conformance_ok is True
        assert after.result.finish_time == before.result.finish_time
        assert sorted(fresh.jobs) == ["a2a"]
        assert fresh._step_index == 5 and fresh.now == daemon.now
        est_after = fresh.estimator.estimate((0, 1))
        assert est_after.health is est_before.health
        assert est_after.last_transition == est_before.last_transition
        # recovery immediately re-compacts: double replay cannot exist
        assert fresh.wal.snapshot_path.exists()
        assert WriteAheadLog(fresh.wal.path).load().records == []
        assert fresh.status()["recovery"]["recovered"] is True
        fresh.wal.close()

    def test_log_replayed_over_the_snapshot_that_folded_it(
            self, tmp_path, planner):
        # a crash between a compaction's snapshot write and its log
        # truncation leaves both; each logged proposal is entered once
        topo = tiny_ring()
        events = [LinkEvent(at=2.0, link=(0, 1), factor=0.4)]
        daemon = make_controller(topo, planner, tmp_path / "w.wal",
                                 events=events)
        daemon.add_job(a2a_job(topo))
        for _ in range(4):
            daemon.step()
        log = daemon.wal.path.read_bytes()
        daemon.wal.compact(daemon.registry_state())
        daemon.wal.path.write_bytes(log)  # the truncation never happened
        daemon.wal.close()

        fresh = make_controller(topo, planner, tmp_path / "w.wal",
                                takeover=True)
        provenance = fresh.recover()
        assert provenance["snapshot"] and provenance["records_replayed"]

        def registry(ctl):
            return ([(e.seq, e.status, e.conformance_ok)
                     for e in ctl.registry.history],
                    {job: ctl.registry.active(job).seq
                     for job in ctl.registry.active_jobs()})

        assert len(daemon.registry.history) == 2  # the replan happened
        assert registry(fresh) == registry(daemon)
        assert fresh._step_index == 4 and sorted(fresh.jobs) == ["a2a"]
        fresh.wal.close()

    def test_uncommitted_tail_is_discarded(self, tmp_path, planner):
        topo = tiny_ring()
        daemon = make_controller(topo, planner, tmp_path / "w.wal")
        daemon.add_job(a2a_job(topo))
        daemon.step()
        # crash mid-operation: a begin with no commit
        daemon.wal.append("begin", {"op": "step", "index": 1})
        daemon.wal.append("job_admit",
                          a2a_job(tiny_ring(), name="ghost").to_dict())
        daemon.wal.close()

        fresh = make_controller(topo, planner, tmp_path / "w.wal",
                                takeover=True)
        provenance = fresh.recover()
        assert provenance["records_discarded"] == 2
        assert sorted(fresh.jobs) == ["a2a"]  # the ghost never joined
        assert fresh._step_index == 1
        fresh.wal.close()

    def test_failed_admission_is_never_resurrected(self, tmp_path,
                                                   planner):
        # a failed admission journals an abort; even after later
        # operations commit, recovery must not replay the buried
        # job_admit and resurrect the ghost (which would permanently
        # block re-admission)
        topo = tiny_ring()
        daemon = make_controller(topo, planner, tmp_path / "w.wal")
        daemon.add_job(a2a_job(topo))
        vet = daemon._vet
        daemon._vet = lambda result: False  # force the admission to fail
        with pytest.raises(FleetError, match="conformance"):
            daemon.add_job(a2a_job(topo, name="ghost"))
        daemon._vet = vet
        assert "ghost" not in daemon.jobs  # in-memory compensation
        daemon.step()  # a later committed operation buries the abort
        daemon.wal.close()

        fresh = make_controller(topo, planner, tmp_path / "w.wal",
                                takeover=True)
        fresh.recover()
        assert sorted(fresh.jobs) == ["a2a"]  # the ghost never joined
        # and re-admission is not blocked
        entry = fresh.add_job(a2a_job(topo, name="ghost"))
        assert entry.status is ScheduleStatus.ACTIVE
        fresh.wal.close()

    def test_plan_missing_replans_dropped_incumbent(self, tmp_path,
                                                    planner):
        # a recovered job whose incumbent failed re-vetting stays
        # admitted but scheduleless; plan_missing is the path back
        topo = tiny_ring()
        daemon = make_controller(topo, planner, tmp_path / "w.wal")
        daemon.add_job(a2a_job(topo))
        daemon.wal.close()

        fresh = make_controller(topo, planner, tmp_path / "w.wal",
                                takeover=True)
        vet = fresh._vet
        fresh._vet = lambda result: False  # oracle refuses the recovery
        provenance = fresh.recover()
        fresh._vet = vet
        assert provenance["entries_recovered"] == 0
        assert sorted(fresh.jobs) == ["a2a"]
        assert fresh.registry.active("a2a") is None
        planned = fresh.plan_missing()
        assert set(planned) == {"a2a"}
        entry = fresh.registry.active("a2a")
        assert entry is not None and entry.conformance_ok is True
        assert fresh.plan_missing() == {}  # idempotent: nothing missing
        fresh.wal.close()

    def test_share_policy_survives_recovery(self, tmp_path, planner):
        # the successor orchestrator recovers as a controller and plans
        # the dropped job on its priority share, not the whole fabric
        topo = tiny_ring()
        walpath = tmp_path / "w.wal"

        def orchestrator(wal=None):
            return FleetOrchestrator(topo, SyntheticTelemetry(topo),
                                     planner, wal=wal)

        wal = WriteAheadLog(walpath)
        wal.attach_lease()
        fleet = orchestrator(wal)
        assert isinstance(fleet, AdaptationController)
        fleet.add_job(a2a_job(topo, name="gold", priority=3.0))
        fleet.add_job(a2a_job(topo, name="scavenger", chunks=2,
                              priority=1.0))
        wal.close()

        # forge scavenger's durable schedule: claim a finish time the
        # conformance replay cannot reproduce, so recovery drops it
        records = WriteAheadLog(walpath).load().records
        walpath.unlink()
        forged = WriteAheadLog(walpath)
        for record in records:
            if record["kind"] == "propose" \
                    and record["data"]["job"] == "scavenger":
                entry = RegistryEntry.from_wire(record["data"])
                entry.result = dataclasses.replace(
                    entry.result,
                    finish_time=entry.result.finish_time / 2)
                forged.append("propose", entry.to_wire())
            else:
                forged.append(record["kind"], record["data"])
        forged.close()

        wal = WriteAheadLog(walpath)
        wal.attach_lease(takeover=True)
        successor = orchestrator(wal)
        provenance = successor.recover()
        assert provenance["entries_recovered"] == 1
        assert [drop["job"] for drop in provenance["entries_dropped"]] \
            == ["scavenger"]
        assert successor.share("scavenger") == pytest.approx(0.25)
        planned = successor.plan_missing()
        assert set(planned) == {"scavenger"}
        assert planned["scavenger"].conformance_ok is True
        wal.close()

        reference = orchestrator()
        reference.add_job(a2a_job(topo, name="gold", priority=3.0))
        reference.add_job(a2a_job(topo, name="scavenger", chunks=2,
                                  priority=1.0))
        assert planned["scavenger"].result.finish_time == pytest.approx(
            reference.registry.active("scavenger").result.finish_time)

    def test_nonconformant_recovery_dropped_never_activated(
            self, tmp_path, planner):
        topo = tiny_ring()
        daemon = make_controller(topo, planner, tmp_path / "w.wal")
        daemon.add_job(a2a_job(topo))
        daemon.wal.close()

        # tamper with the durable schedule: claim a finish time the
        # conformance replay cannot reproduce
        wal = WriteAheadLog(tmp_path / "w.wal")
        state = wal.load()
        source = state.snapshot["entries"] if state.snapshot \
            else [r["data"] for r in state.records
                  if r["kind"] == "propose"]
        entry = RegistryEntry.from_wire(source[-1])
        entry.result = dataclasses.replace(
            entry.result, finish_time=entry.result.finish_time / 2)
        forged = [r for r in state.records if r["kind"] != "propose"]
        wal.path.unlink()
        wal2 = WriteAheadLog(tmp_path / "w.wal")
        wal2.attach_lease(takeover=True)
        for record in forged:
            if record["kind"] == "job_admit":
                wal2.append("job_admit", record["data"])
                wal2.append("propose", entry.to_wire())
            else:
                wal2.append(record["kind"], record["data"])
        wal2.close()

        fresh = make_controller(topo, planner, tmp_path / "w.wal",
                                takeover=True)
        provenance = fresh.recover()
        assert provenance["entries_recovered"] == 0
        assert [d["reason"] for d in provenance["entries_dropped"]] \
            == ["failed conformance replay"]
        assert fresh.registry.active("a2a") is None
        rolled = [e for e in fresh.registry.history
                  if e.status is ScheduleStatus.ROLLED_BACK]
        assert rolled and rolled[0].conformance_ok is False
        assert fresh.metrics.snapshot()[
            "fleet_recovery_dropped_total"]["value"] == 1
        fresh.wal.close()

    def test_recover_requires_wal_and_fresh_controller(
            self, tmp_path, planner):
        topo = tiny_ring()
        source = SyntheticTelemetry(topo, events=[])
        bare = AdaptationController(topo, source, planner)
        with pytest.raises(FleetError, match="needs a WAL"):
            bare.recover()
        daemon = make_controller(topo, planner, tmp_path / "w.wal")
        daemon.add_job(a2a_job(topo))
        with pytest.raises(FleetError, match="fresh controller"):
            daemon.recover()
        daemon.wal.close()

    @pytest.mark.parametrize("kind, data", [
        ("job_remove", {}),
        ("activate", {"job": "a2a", "conformance_ok": True}),
    ])
    def test_malformed_committed_record_is_a_typed_error(
            self, tmp_path, planner, kind, data):
        topo = tiny_ring()
        daemon = make_controller(topo, planner, tmp_path / "w.wal")
        daemon.add_job(a2a_job(topo))
        daemon.step()
        daemon.wal.append("begin", {"op": "remove", "job": "a2a"})
        seq = daemon.wal.append(kind, data)
        daemon.wal.append("commit", {"op": "remove", "job": "a2a"})
        daemon.wal.close()

        fresh = make_controller(topo, planner, tmp_path / "w.wal",
                                takeover=True)
        links = {link: est.to_dict()
                 for link, est in fresh.estimator._links.items()}
        with pytest.raises(FleetError, match=rf"seq {seq} \({kind}\)"):
            fresh.recover()
        # the records before the bad one were replayed, then undone
        assert fresh.jobs == {} and fresh._step_index == 0
        assert fresh.recovery is None and not fresh.decisions
        assert fresh.registry.active_jobs() == []
        assert not fresh.registry.history
        assert {link: est.to_dict()
                for link, est in fresh.estimator._links.items()} == links
        # still fresh: an admission journals and activates as usual
        entry = fresh.add_job(a2a_job(topo, name="next"))
        assert entry.status is ScheduleStatus.ACTIVE
        fresh.wal.close()

    @pytest.mark.parametrize("field, value", [("package", "0.0.0-stale"),
                                              ("version", -1)])
    @pytest.mark.parametrize("where", ["log", "snapshot"])
    def test_stale_incumbent_envelope_is_dropped_never_activated(
            self, tmp_path, planner, monkeypatch, where, field, value):
        topo = tiny_ring()
        # compact_every=1: the admission lands in the snapshot, log empty
        daemon = make_controller(topo, planner, tmp_path / "w.wal",
                                 compact_every=1 if where == "snapshot"
                                 else 256)
        daemon.add_job(a2a_job(topo))
        seq = daemon.registry.active("a2a").seq
        daemon.wal.close()

        # age the incumbent's envelope, as if another package (or cache
        # format) had written it
        wal = WriteAheadLog(tmp_path / "w.wal")
        state = wal.load()
        assert (state.snapshot is not None) == (where == "snapshot")
        if where == "snapshot":
            (doc,) = [d for d in state.snapshot["entries"]
                      if d["seq"] == seq]
            doc["result"][field] = value
            atomic_write_json(wal.snapshot_path, state.snapshot)
        else:
            wal.path.unlink()
            for record in state.records:
                if record["kind"] == "propose":
                    record["data"]["result"][field] = value
                wal.append(record["kind"], record["data"])
        wal.close()

        activated = []
        activate = ScheduleRegistry.activate
        monkeypatch.setattr(
            ScheduleRegistry, "activate",
            lambda self, entry: activated.append(entry.job)
            or activate(self, entry))
        fresh = make_controller(topo, planner, tmp_path / "w.wal",
                                takeover=True)
        provenance = fresh.recover()
        assert provenance["snapshot"] is (where == "snapshot")
        assert provenance["entries_recovered"] == 0
        assert provenance["entries_dropped"] == [
            {"job": "a2a", "seq": seq, "reason": "stale schedule envelope"}]
        assert activated == []
        assert fresh.registry.active("a2a") is None
        assert sorted(fresh.jobs) == ["a2a"]
        assert fresh.metrics.snapshot()[
            "fleet_recovery_dropped_total"]["value"] == 1
        assert set(fresh.plan_missing()) == {"a2a"}
        fresh.wal.close()

    def test_fenced_daemon_cannot_activate(self, tmp_path, planner):
        """Acceptance: after takeover the old generation never activates."""
        topo = tiny_ring()
        events = [LinkEvent(at=2.0, link=(0, 1), factor=0.4)]
        old = make_controller(topo, planner, tmp_path / "w.wal",
                              events=events)
        old.add_job(a2a_job(topo))
        replans_before = old.stats()["replans"]

        new_wal = WriteAheadLog(tmp_path / "w.wal")
        new_wal.attach_lease(takeover=True)  # fence the old daemon

        # the degrade event would normally drive a replan + activation;
        # the write-ahead append refuses instead, so nothing activates
        incumbent = old.registry.active("a2a")
        with pytest.raises(FleetError, match="fenced"):
            for _ in range(4):
                old.step()
        assert old.stats()["replans"] == replans_before
        assert old.registry.active("a2a") is incumbent
        old.wal.close()
        new_wal.close()

    def test_fenced_remove_job_keeps_the_job(self, tmp_path, planner):
        # removal is write-ahead like admission: a refused journal append
        # must leave memory and durable state agreeing the job is present
        topo = tiny_ring()
        daemon = make_controller(topo, planner, tmp_path / "w.wal")
        daemon.add_job(a2a_job(topo))
        other = WriteAheadLog(daemon.wal.path)
        other.attach_lease(takeover=True)  # fence the daemon
        with pytest.raises(FleetError, match="fenced"):
            daemon.remove_job("a2a")
        assert "a2a" in daemon.jobs
        assert daemon.registry.active("a2a") is not None
        daemon.wal.close()
        other.close()

    def test_fenced_daemon_loop_yields(self, tmp_path, planner):
        topo = tiny_ring()
        old = make_controller(topo, planner, tmp_path / "w.wal")
        old.add_job(a2a_job(topo))
        new_wal = WriteAheadLog(tmp_path / "w.wal")
        new_wal.attach_lease(takeover=True)
        old.start(interval=0.01)
        old._thread.join(timeout=5.0)  # the loop notices and exits itself
        assert not old._thread.is_alive()
        assert "fenced" in (old.last_error or "")
        old.stop()
        old.wal.close()
        new_wal.close()


# ----------------------------------------------------------------------
# satellite: serialization round-trip audit
# ----------------------------------------------------------------------
def _rand_config(rng):
    return TecclConfig(chunk_bytes=rng.choice([0.25, 0.5, 1.0, 2.0]))


def _rand_job(rng, topo):
    return FleetJob(
        name=f"job-{rng.randrange(1000)}",
        demand=collectives.alltoall(topo.gpus, rng.choice([1, 2])),
        config=_rand_config(rng),
        method=rng.choice([Method.AUTO, Method.LP, Method.MILP]),
        priority=rng.choice([0.5, 1.0, 2.0]))


def _rand_decision(rng):
    return AdaptationDecision(
        job=f"job-{rng.randrange(1000)}",
        time=rng.uniform(0, 100),
        action=rng.choice(["replan", "keep", "rollback", "failed"]),
        reason="audit",
        predicted=rng.choice([None, rng.uniform(0, 1), float("inf")]),
        active_finish=rng.choice([None, rng.uniform(0, 1)]),
        new_finish=rng.choice([None, rng.uniform(0, 1)]),
        solve_time=rng.choice([None, rng.uniform(0, 1)]))


class TestRoundTripAudit:
    """``from_dict(to_dict(x)) == x`` for everything the WAL persists.

    Each case also pushes the document through an actual JSON encode /
    decode — the WAL stores bytes, so a round-trip that only works on
    live dicts (tuples, enum members, numpy scalars) would still lose
    data on disk.
    """

    def _json(self, doc):
        return json.loads(json.dumps(doc))

    def test_fleet_job_roundtrip_randomized(self):
        rng = random.Random(1234)
        topo = tiny_ring()
        for _ in range(25):
            job = _rand_job(rng, topo)
            back = FleetJob.from_dict(self._json(job.to_dict()))
            assert back == job

    def test_adaptation_decision_roundtrip_randomized(self):
        rng = random.Random(99)
        for _ in range(50):
            decision = _rand_decision(rng)
            back = AdaptationDecision.from_dict(
                self._json(decision.to_dict()))
            assert back == decision

    def test_link_sample_roundtrip_randomized(self):
        rng = random.Random(7)
        for _ in range(50):
            sample = LinkSample(
                link=(rng.randrange(8), rng.randrange(8)),
                time=rng.uniform(0, 50), bandwidth=rng.uniform(0, 2),
                latency=rng.uniform(0, 1e-5), loss=rng.uniform(0, 1))
            assert LinkSample.from_dict(self._json(sample.to_dict())) \
                == sample

    def test_registry_entry_wire_roundtrip(self):
        from repro.core.solve import SynthesisResult

        topo = tiny_ring()
        result = synthesize(topo, collectives.alltoall(topo.gpus, 1),
                            TecclConfig(chunk_bytes=1.0))
        # the raw solver `outcome` is documented-lossy (solver internals);
        # the WAL only ever persists the serialized form, so the audit
        # compares against the canonical post-serialization result
        result = SynthesisResult.from_dict(result.to_dict())
        rng = random.Random(42)
        for status in ScheduleStatus:
            entry = RegistryEntry(
                job="a2a", result=result, status=status,
                time=rng.uniform(0, 10),
                conformance_ok=rng.choice([None, True, False]),
                note="audit", fabric=rng.choice([None, topo]),
                seq=rng.randrange(100))
            back = RegistryEntry.from_wire(self._json(entry.to_wire()))
            assert back == entry

    def test_plan_request_response_roundtrip(self, planner):
        topo = tiny_ring()
        request = PlanRequest(topology=topo,
                              demand=collectives.alltoall(topo.gpus, 1),
                              config=TecclConfig(chunk_bytes=1.0),
                              minimize_epochs=True, tag="audit")
        assert PlanRequest.from_dict(self._json(request.to_dict())) \
            == request
        response = planner.plan(request)
        back = PlanResponse.from_dict(self._json(response.to_dict()))
        assert back == response
        failed = PlanResponse(fingerprint="ab" * 32, error="boom")
        assert PlanResponse.from_dict(self._json(failed.to_dict())) \
            == failed

    def test_registry_state_roundtrips_through_json(
            self, tmp_path, planner):
        topo = tiny_ring()
        daemon = make_controller(topo, planner, tmp_path / "w.wal",
                                 events=[LinkEvent(at=1.0, link=(0, 1),
                                                   factor=0.4)])
        daemon.add_job(a2a_job(topo))
        for _ in range(3):
            daemon.step()
        state = daemon.registry_state()
        assert check_registry_state(self._json(state)) == self._json(state)
        daemon.wal.close()


# ----------------------------------------------------------------------
# satellite: stop() promptness and step atomicity
# ----------------------------------------------------------------------
class TestDaemonStop:
    def test_stop_returns_promptly_from_a_long_interval(self, planner):
        import time

        topo = tiny_ring()
        source = SyntheticTelemetry(topo, events=[])
        daemon = AdaptationController(topo, source, planner)
        daemon.start(interval=60.0)  # Event.wait, so stop() need not wait
        begin = time.monotonic()
        daemon.stop()
        assert time.monotonic() - begin < 5.0
        assert daemon._thread is None

    def test_stop_never_interleaves_with_a_half_finished_step(
            self, planner):
        import time

        topo = tiny_ring()
        log = []

        class SlowSource(SyntheticTelemetry):
            def poll(self):
                log.append("enter")
                time.sleep(0.05)
                samples = super().poll()
                log.append("exit")
                return samples

        daemon = AdaptationController(topo, SlowSource(topo, events=[]),
                                      planner)
        daemon.start(interval=0.001)
        time.sleep(0.12)  # let at least one slow step get in flight
        daemon.stop()
        log.append("stopped")
        stopped = log.index("stopped")
        before = log[:stopped]
        # every step that started before stop() returned also finished
        # before it (stop joins the thread; the step holds _op_lock)
        assert before.count("enter") == before.count("exit")
        assert "enter" not in log[stopped + 1:]

    def test_sync_step_serialized_against_admission(self, planner):
        # _op_lock: step() and add_job() can race from different threads
        # without interleaving half-applied state
        import threading

        topo = tiny_ring()
        source = SyntheticTelemetry(topo, events=[])
        daemon = AdaptationController(topo, source, planner)
        daemon.add_job(a2a_job(topo))
        errors = []

        def stepper():
            try:
                for _ in range(5):
                    daemon.step()
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def admitter():
            try:
                for index in range(3):
                    daemon.add_job(a2a_job(topo, name=f"j{index}"))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=stepper),
                   threading.Thread(target=admitter)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert sorted(daemon.jobs) == ["a2a", "j0", "j1", "j2"]
        assert daemon.registry.active_jobs() == ["a2a", "j0", "j1", "j2"]
