"""The fleet WAL encodes each schedule once, and its frames do not change.

A proposed result's canonical text is built once, kept on the result, and
spliced into every ``propose`` frame that carries it. These tests pin what
that must not change: every frame is the plain ``json.dumps(record,
separators=(",", ":"), sort_keys=True)`` of its record, every envelope
fingerprint is ``fingerprint_canonical`` of its payload, and a round
serialises each distinct result once.
"""

import json
from collections import Counter

import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.solve import SynthesisResult
from repro.fleet import (AdaptationController, FabricEstimator, FleetJob,
                         LinkEvent, SyntheticTelemetry, WriteAheadLog)
from repro.fleet import wal as wal_module
from repro.fleet.wal import Encoded
from repro.service import Planner
from repro.service.fingerprint import canonical_json, fingerprint_canonical

pytestmark = pytest.mark.fleet


def _plain(record) -> bytes:
    """The frame body of ``record`` with every spliced value decoded."""
    return json.dumps(record, separators=(",", ":"), sort_keys=True,
                      default=lambda encoded: json.loads(encoded.text)
                      ).encode("utf-8")


def _fleet_round(tmp_path, *, compact_every=256):
    """A seeded round on ring6: two replicas that share one result, a
    third job, fabric-wide congestion, then one slow link, each healed."""
    topo = topology.ring(6, capacity=1.0)
    events = [LinkEvent(at=2.0, link=key, factor=0.7, until=5.0)
              for key in topo.links]
    events.append(LinkEvent(at=8.0, link=(0, 1), factor=0.5, until=11.0))
    wal = WriteAheadLog(tmp_path / "fleet.wal")
    planner = Planner(executor="inline")
    controller = AdaptationController(
        topo, SyntheticTelemetry(topo, events=events, seed=0), planner,
        wal=wal, compact_every=compact_every,
        estimator=FabricEstimator(topo, smoothing=1.0, min_samples=1))
    a2a = collectives.alltoall(topo.gpus, 1)
    for name in ("a2a-0", "a2a-1"):
        controller.add_job(FleetJob(name, a2a, TecclConfig(chunk_bytes=1.0)))
    controller.add_job(FleetJob("a2a-fine", collectives.alltoall(
        topo.gpus, 2), TecclConfig(chunk_bytes=0.5)))
    for _ in range(14):
        controller.step()
    wal.close()
    planner.close()
    return controller


@pytest.fixture
def frames(monkeypatch):
    """Every ``(record, body)`` the WAL encodes while the fixture lives."""
    seen = []
    encode = wal_module._encode

    def spy(record):
        body = encode(record)
        seen.append((record, body))
        return body

    monkeypatch.setattr(wal_module, "_encode", spy)
    return seen


@pytest.mark.parametrize("compact_every", [256, 40],
                         ids=["no-compaction", "compaction"])
def test_every_frame_is_the_plain_encoding(tmp_path, frames,
                                           compact_every):
    controller = _fleet_round(tmp_path, compact_every=compact_every)
    assert controller.stats()["replans"] >= 4
    assert (controller.wal.compactions > 0) == (compact_every == 40)
    spliced = 0
    for record, body in frames:
        assert body == _plain(record), record["kind"]
        spliced += body.count(b'"payload":{')
    proposes = [r for r, _ in frames if r["kind"] == "propose"]
    assert proposes and spliced == len(proposes)
    assert all(isinstance(r["data"]["result"]["payload"], Encoded)
               for r in proposes)
    # what is left on disk frames the same bytes
    for line in (tmp_path / "fleet.wal").read_bytes().splitlines():
        body = line[17:]
        assert body == _plain(json.loads(body))


def test_envelope_fingerprint_is_fingerprint_canonical(tmp_path, frames):
    controller = _fleet_round(tmp_path, compact_every=40)
    envelopes = [json.loads(body)["data"]["result"]
                 for record, body in frames if record["kind"] == "propose"]
    snapshot = json.loads(
        controller.wal.snapshot_path.read_text(encoding="utf-8"))
    envelopes += [entry["result"] for entry in snapshot["entries"]]
    assert len(envelopes) > len(snapshot["entries"]) > 0
    for envelope in envelopes:
        assert envelope["fingerprint"] \
            == fingerprint_canonical(envelope["payload"])


def test_to_dict_runs_once_per_distinct_result(tmp_path, monkeypatch):
    calls: Counter = Counter()
    alive = {}  # keeps every counted result alive, so ids stay distinct
    to_dict = SynthesisResult.to_dict

    def counting(self):
        calls[id(self)] += 1
        alive[id(self)] = self
        return to_dict(self)

    monkeypatch.setattr(SynthesisResult, "to_dict", counting)
    controller = _fleet_round(tmp_path, compact_every=40)
    assert controller.wal.compactions > 0
    proposed = {id(entry.result) for entry in controller.registry.history}
    assert len(proposed) < len(controller.registry.history)  # shared
    assert proposed <= set(calls)
    assert set(calls.values()) == {1}


def test_to_wire_payload_is_to_dict(tmp_path):
    controller = _fleet_round(tmp_path)
    for entry in controller.registry.history:
        wire = entry.to_wire()
        assert wire["result"]["payload"] == entry.result.to_dict()
        assert wire["result"]["fingerprint"] == fingerprint_canonical(
            entry.result.to_dict())


def test_a_string_that_reads_like_the_slot_falls_back(tmp_path):
    document = {"b": [1.5, {"c": None}], "a": "x"}
    text = canonical_json(document)
    encoded = Encoded(text, "d" * 64)
    record = {"data": {"job": "\0" + "d" * 64, "payload": encoded},
              "kind": "propose"}
    with WriteAheadLog(tmp_path / "w.wal") as wal:
        wal.append(record["kind"], record["data"])
    body = (tmp_path / "w.wal").read_bytes()[17:-1]
    loaded = json.loads(body)
    assert loaded["data"] == {"job": "\0" + "d" * 64, "payload": document}
    assert body == _plain(loaded)
