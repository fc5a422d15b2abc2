"""An old log still recovers: a committed WAL fixture and its recovered state.

``tests/golden/fleet_wal/`` holds a write-ahead log and its compaction
snapshot, written by :func:`write_scenario` with the tree at commit
5adab66. That tree read the log back through a second parser of its own,
not through the registry's transitions. ``recovered.json`` is the state
that tree recovered from the fixture (:func:`recovered_state`). Recovery
replays the snapshot and the committed records through the live
transitions now, and it must land on exactly that state: jobs, active
seqs, entry statuses, verdicts and notes, every link's estimate,
decisions, the step index and the provenance dict.

The scenario covers each lifecycle transition on both sides of the
compaction. Before it: two admissions, a degradation whose replan of one
job is refused by the oracle (a rollback) while the other activates, and a
second degradation. After it: an admission that fails and aborts, a job
removal (a retirement), a link recovery whose probe is refused (a
rollback), and a third degradation.

The schedules sit in versioned envelopes (package and cache format
version). A bump of either makes every fixture schedule stale; regenerate
the fixture and its recovered state with that tree then::

    PYTHONPATH=src python tests/test_fleet_wal_golden.py tests/golden/fleet_wal
"""

import json
import pathlib
import shutil
import sys

import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.errors import FleetError
from repro.fleet import (AdaptationController, FabricEstimator, FleetJob,
                         LinkEvent, SyntheticTelemetry, WriteAheadLog)
from repro.service import Planner
from repro.service.cache import CACHE_FORMAT_VERSION
from repro.service.fingerprint import fingerprint_canonical

pytestmark = [pytest.mark.fleet, pytest.mark.durability]

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "fleet_wal"

TOPOLOGY = topology.ring(4, capacity=1.0)
EVENTS = [LinkEvent(at=2.0, link=(0, 1), factor=0.4),
          LinkEvent(at=4.0, link=(1, 2), factor=0.3, until=6.0),
          LinkEvent(at=7.0, link=(2, 3), factor=0.5)]


def _estimator():
    return FabricEstimator(TOPOLOGY, smoothing=1.0, min_samples=1,
                           cooldown=1.0)


def _job(name, chunks):
    return FleetJob(name=name,
                    demand=collectives.alltoall(TOPOLOGY.gpus, chunks),
                    config=TecclConfig(chunk_bytes=1.0 / chunks))


def refuse_first(vet):
    """A vetting hook that refuses its first result and defers after."""
    calls = []

    def check(result):
        calls.append(result)
        return len(calls) > 1 and vet(result)

    return check


def write_scenario(directory: pathlib.Path) -> None:
    """Run the fixture scenario; leaves ``fleet.wal`` and its snapshot."""
    wal = WriteAheadLog(directory / "fleet.wal")
    wal.attach_lease()
    with Planner(executor="inline") as planner:
        daemon = AdaptationController(
            TOPOLOGY, SyntheticTelemetry(TOPOLOGY, events=EVENTS), planner,
            wal=wal, estimator=_estimator(), compact_every=30)
        daemon.add_job(_job("gold", 1))
        daemon.add_job(_job("bronze", 2))
        vet = daemon._vet
        for index in range(9):
            # the oracle refuses the first replan of steps 2 and 6
            daemon._vet = refuse_first(vet) if index in (2, 6) else vet
            daemon.step()
            daemon._vet = vet
            if index == 4:
                daemon._vet = lambda result: False
                with pytest.raises(FleetError, match="refusing to admit"):
                    daemon.add_job(_job("ghost", 1))
                daemon._vet = vet
                daemon.remove_job("bronze")
    wal.close()
    (directory / "fleet.wal.lease").unlink()


def recovered_state(daemon: AdaptationController) -> dict:
    """Everything recovery rebuilds, as JSON-ready data."""
    registry = daemon.registry
    with registry._lock:
        entries = {entry.seq: entry for entry in registry.history}
        entries.update((entry.seq, entry)
                       for entry in registry._active.values())
        history = [entry.seq for entry in registry.history]
        active = {job: entry.seq
                  for job, entry in sorted(registry._active.items())}
    return {
        "jobs": {name: job.to_dict()
                 for name, job in sorted(daemon.jobs.items())},
        "active": active,
        "history": history,
        "entries": [[seq, entries[seq].job, entries[seq].status.value,
                     entries[seq].conformance_ok, entries[seq].note,
                     entries[seq].time,
                     fingerprint_canonical(entries[seq].result.to_dict())]
                    for seq in sorted(entries)],
        "entry_seq": registry._seq,
        "links": {"%d->%d" % link: [est.health.value, est.ewma,
                                    est.last_transition, est.samples]
                  for link, est in sorted(daemon.estimator._links.items())},
        "decisions": [decision.to_dict() for decision in daemon.decisions],
        "steps": daemon._step_index,
        "now": daemon.now,
        "provenance": daemon.recovery,
        "snapshot": fingerprint_canonical(daemon.registry_state()),
    }


def recover(directory: pathlib.Path) -> AdaptationController:
    wal = WriteAheadLog(directory / "fleet.wal")
    wal.attach_lease(takeover=True)
    planner = Planner(executor="inline")
    daemon = AdaptationController(TOPOLOGY, SyntheticTelemetry(TOPOLOGY),
                                  planner, wal=wal, estimator=_estimator())
    try:
        daemon.recover()
    finally:
        wal.close()
        planner.close()
    return daemon


def test_fixture_covers_every_transition_on_both_sides():
    snapshot = json.loads(
        (GOLDEN / "fleet.wal.snapshot").read_text(encoding="utf-8"))
    state = WriteAheadLog(GOLDEN / "fleet.wal").load()
    kinds = [record["kind"] for record in state.records]
    for kind in ("rollback", "retire", "transition", "activate"):
        assert kind in kinds, kind
    assert state.uncommitted  # the aborted admission
    statuses = {doc["status"] for doc in snapshot["entries"]}
    assert {"active", "retired", "rolled_back"} <= statuses
    assert any(doc["health"] == "degraded"
               for doc in snapshot["estimator"].values())
    degraded = [record for record in state.records
                if record["kind"] == "transition"
                and record["data"]["new"] == "degraded"]
    assert degraded


def test_old_log_recovers_to_the_recorded_state(tmp_path):
    envelope = json.loads(
        (GOLDEN / "fleet.wal.snapshot").read_text(encoding="utf-8")
    )["entries"][0]["result"]
    import repro

    assert (envelope["package"], envelope["version"]) == (
        repro.__version__, CACHE_FORMAT_VERSION), (
        "the fixture's schedule envelopes are stale: regenerate it (see "
        "the module docstring)")
    work = tmp_path / "fleet"
    shutil.copytree(GOLDEN, work)
    (work / "recovered.json").unlink()
    expected = json.loads(
        (GOLDEN / "recovered.json").read_text(encoding="utf-8"))
    assert recovered_state(recover(work)) == expected


if __name__ == "__main__":
    target = pathlib.Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    for name in ("fleet.wal", "fleet.wal.snapshot"):
        (target / name).unlink(missing_ok=True)
    write_scenario(target)
    scratch = target.with_name(target.name + ".recover")
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(target, scratch)
    state = recovered_state(recover(scratch))
    shutil.rmtree(scratch)
    (target / "recovered.json").write_text(
        json.dumps(state, indent=1, sort_keys=True) + "\n", encoding="utf-8")
