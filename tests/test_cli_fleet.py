"""CLI tests for the fleet verbs: ``fleet run``, ``fleet status``, and
the hccl_demo-style ``bench-sweep``."""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.fleet


class TestBenchSweep:
    def test_sweep_publishes_algbw_busbw(self, tmp_path, capsys):
        output = tmp_path / "BENCH_fleet_sweep.json"
        code = main(["bench-sweep", "--topology", "dgx1",
                     "--collective", "allgather",
                     "--min-size", "4096", "--max-size", "16384",
                     "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "algbw GB/s" in out and "busbw GB/s" in out
        doc = json.loads(output.read_text(encoding="utf-8"))
        assert doc["collective"] == "allgather"
        sizes = [row["size_bytes"] for row in doc["rows"]]
        assert sizes == [4096, 8192, 16384]  # the 2^k grid
        for row in doc["rows"]:
            n = doc["gpus"]
            assert row["algbw"] == pytest.approx(
                row["size_bytes"] / row["finish_time"])
            assert row["busbw"] == pytest.approx(
                row["algbw"] * (n - 1) / n)

    def test_allreduce_busbw_factor(self, tmp_path):
        output = tmp_path / "sweep.json"
        code = main(["bench-sweep", "--topology", "dgx1",
                     "--collective", "allreduce",
                     "--min-size", "8192", "--max-size", "8192",
                     "--output", str(output)])
        assert code == 0
        doc = json.loads(output.read_text(encoding="utf-8"))
        row = doc["rows"][0]
        n = doc["gpus"]
        assert row["busbw"] == pytest.approx(
            row["algbw"] * 2 * (n - 1) / n)

    def test_bad_size_range_rejected(self, capsys):
        assert main(["bench-sweep", "--topology", "dgx1",
                     "--min-size", "5000", "--max-size", "6000"]) == 1
        assert "power-of-two" in capsys.readouterr().err


class TestFleetRunStatus:
    def test_run_adapts_and_status_renders(self, tmp_path, capsys):
        status_file = tmp_path / "fleet.json"
        code = main(["fleet", "run", "--topology", "dgx1",
                     "--jobs", "alltoall", "--chunk-size", "1e6",
                     "--steps", "5", "--degrade", "0,1,0.4,2",
                     "--status-file", str(status_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "admitted     : alltoall#0" in out
        assert "replan" in out
        assert "rollbacks" in out

        doc = json.loads(status_file.read_text(encoding="utf-8"))
        assert doc["stats"]["transitions"] >= 1
        assert doc["stats"]["replans"] >= 1
        assert doc["stats"]["rollbacks"] == 0
        active = doc["registry"]["active"]
        assert all(entry["conformance_ok"] for entry in active.values())

        code = main(["fleet", "status", "--status-file", str(status_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded" in out
        assert "alltoall#0" in out

    def test_link_failure_scenario(self, capsys):
        # dgx1 survives losing one NVLink pair: the daemon must replan
        code = main(["fleet", "run", "--topology", "dgx1",
                     "--jobs", "alltoall", "--chunk-size", "1e6",
                     "--steps", "4",
                     "--fail", "0,1,1", "--fail", "1,0,1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 down" in out or "2 down" in out

    def test_bad_degrade_spec_rejected(self, capsys):
        assert main(["fleet", "run", "--topology", "dgx1",
                     "--degrade", "0,1"]) == 1
        assert "SRC,DST,FACTOR,AT" in capsys.readouterr().err
        # wrong types degrade to the CLI error contract, not a traceback
        assert main(["fleet", "run", "--topology", "dgx1",
                     "--degrade", "0,1,half,2"]) == 1
        assert "bad --degrade" in capsys.readouterr().err
        assert main(["fleet", "run", "--topology", "dgx1",
                     "--fail", "0,x,1"]) == 1
        assert "bad --fail" in capsys.readouterr().err

    def test_wal_recover_resumes_the_fleet(self, tmp_path, capsys):
        wal = tmp_path / "fleet.wal"
        status_file = tmp_path / "fleet.json"
        code = main(["fleet", "run", "--topology", "dgx1",
                     "--jobs", "alltoall", "--chunk-size", "1e6",
                     "--steps", "4", "--degrade", "0,1,0.4,2",
                     "--wal", str(wal), "--status-file", str(status_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wal          :" in out and "generation 1" in out

        # a second generation recovers the schedule instead of replanning
        code = main(["fleet", "run", "--topology", "dgx1",
                     "--jobs", "alltoall", "--chunk-size", "1e6",
                     "--steps", "1", "--wal", str(wal),
                     "--recover", "--takeover",
                     "--status-file", str(status_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "generation 2" in out
        assert "recovered    : 1 schedule(s)" in out
        assert "resumed      : alltoall#0" in out

        code = main(["fleet", "status", "--status-file", str(status_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery     : generation 2" in out
        assert "wal          :" in out

    def test_recover_with_dropped_incumbent_replans(self, tmp_path,
                                                    capsys):
        # a recovered incumbent that fails conformance re-vetting is
        # dropped; the run must then *replan* the still-admitted job
        # rather than crash trying to re-admit it
        import dataclasses

        from repro.fleet import WriteAheadLog
        from repro.fleet.controller import RegistryEntry

        wal = tmp_path / "fleet.wal"
        code = main(["fleet", "run", "--topology", "dgx1",
                     "--jobs", "alltoall", "--chunk-size", "1e6",
                     "--steps", "1", "--wal", str(wal)])
        assert code == 0
        capsys.readouterr()

        # forge the durable schedule: claim a finish time the conformance
        # replay cannot reproduce, so recovery must drop the incumbent
        records = WriteAheadLog(wal).load().records
        wal.unlink()
        forged = WriteAheadLog(wal)
        for record in records:
            if record["kind"] == "propose":
                entry = RegistryEntry.from_wire(record["data"])
                entry.result = dataclasses.replace(
                    entry.result,
                    finish_time=entry.result.finish_time / 2)
                forged.append("propose", entry.to_wire())
            else:
                forged.append(record["kind"], record["data"])
        forged.close()

        code = main(["fleet", "run", "--topology", "dgx1",
                     "--jobs", "alltoall", "--chunk-size", "1e6",
                     "--steps", "1", "--wal", str(wal),
                     "--recover", "--takeover"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered    : 0 schedule(s), 1 dropped" in out
        assert "replanned    : alltoall#0" in out
        assert "resumed" not in out and "admitted" not in out

    def test_recover_without_wal_rejected(self, capsys):
        assert main(["fleet", "run", "--topology", "dgx1",
                     "--recover"]) == 1
        assert "--recover needs --wal" in capsys.readouterr().err

    def test_takeover_required_while_holder_lives(self, tmp_path, capsys):
        # same process = same pid = still the holder, so simulate another
        # live daemon by planting init's pid in the lease
        from repro.fleet import atomic_write_json

        wal = tmp_path / "fleet.wal"
        atomic_write_json(str(wal) + ".lease", {"generation": 3, "pid": 1})
        assert main(["fleet", "run", "--topology", "dgx1",
                     "--jobs", "alltoall", "--chunk-size", "1e6",
                     "--steps", "1", "--wal", str(wal)]) == 1
        assert "--takeover" in capsys.readouterr().err

    def test_wal_closed_when_admission_fails(self, tmp_path, capsys,
                                             monkeypatch):
        import repro.fleet
        from repro.errors import ServiceError
        from repro.service import Planner

        opened = []

        class Recording(repro.fleet.WriteAheadLog):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        def refuse(self, request, **kwargs):
            raise ServiceError("solver pool on fire")

        monkeypatch.setattr(repro.fleet, "WriteAheadLog", Recording)
        monkeypatch.setattr(Planner, "plan", refuse)
        assert main(["fleet", "run", "--topology", "dgx1",
                     "--jobs", "alltoall", "--steps", "1",
                     "--wal", str(tmp_path / "fleet.wal")]) == 1
        assert "solver pool on fire" in capsys.readouterr().err
        (wal,) = opened
        # the admission's begin marker opened the log file; the error
        # path must close it just like the success path does
        assert wal.records_written >= 1
        assert wal._file is None

    def test_unwritable_status_file_rejected(self, capsys):
        assert main(["fleet", "run", "--topology", "dgx1",
                     "--jobs", "alltoall", "--chunk-size", "1e6",
                     "--steps", "1",
                     "--status-file", "/nonexistent/dir/f.json"]) == 1
        assert "cannot write --status-file" in capsys.readouterr().err

    def test_unwritable_output_rejected(self, capsys):
        assert main(["bench-sweep", "--topology", "dgx1",
                     "--min-size", "4096", "--max-size", "4096",
                     "--output", "/proc/nope/out.json"]) == 1
        assert "cannot write --output" in capsys.readouterr().err

    def test_status_missing_file_rejected(self, capsys):
        assert main(["fleet", "status",
                     "--status-file", "/nonexistent/f.json"]) == 1
        assert "cannot read" in capsys.readouterr().err
