"""CLI tests for the planner-service verbs: serve-batch and cache."""

import json

import pytest

from repro.cli import main


def _write_requests(tmp_path, specs):
    path = tmp_path / "requests.json"
    path.write_text(json.dumps(specs), encoding="utf-8")
    return str(path)


BATCH = [
    {"topology": "dgx1", "collective": "allgather",
     "chunk_size": 25e3, "epochs": 10, "tag": "ag-a"},
    {"topology": "dgx1", "collective": "allgather",
     "chunk_size": 25e3, "epochs": 10, "tag": "ag-b"},
    {"topology": "dgx1", "collective": "alltoall",
     "chunk_size": 25e3, "tag": "a2a"},
]


class TestServeBatch:
    def test_batch_coalesces_and_caches(self, tmp_path, capsys):
        requests = _write_requests(tmp_path, BATCH)
        cache_dir = str(tmp_path / "cache")
        code = main(["serve-batch", "--requests", requests,
                     "--cache-dir", cache_dir, "--pool", "thread",
                     "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        # ag-a and ag-b are the same instance: one solves, one coalesces
        assert "solves       : 2 (1 coalesced)" in out
        assert "cache        : 0 hits / 3 misses" in out

        # the same batch again is served entirely from the on-disk cache
        code = main(["serve-batch", "--requests", requests,
                     "--cache-dir", cache_dir, "--pool", "inline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache        : 3 hits / 0 misses" in out
        assert "solves       : 0 (0 coalesced)" in out

    def test_full_plan_request_dialect(self, tmp_path, capsys):
        from repro import collectives, topology
        from repro.core import TecclConfig
        from repro.service import PlanRequest

        topo = topology.ring(4, capacity=1.0)
        request = PlanRequest(
            topology=topo,
            demand=collectives.allgather(topo.gpus, 1),
            config=TecclConfig(chunk_bytes=1.0, num_epochs=8),
            tag="explicit")
        requests = _write_requests(tmp_path, [request.to_dict()])
        code = main(["serve-batch", "--requests", requests,
                     "--pool", "inline"])
        assert code == 0
        assert "explicit" in capsys.readouterr().out

    def test_error_requests_reported_not_fatal(self, tmp_path, capsys):
        specs = BATCH[:1] + [
            {"topology": "dgx1", "collective": "allgather",
             "chunk_size": 25e3, "epochs": 1, "tag": "doomed"}]
        requests = _write_requests(tmp_path, specs)
        code = main(["serve-batch", "--requests", requests,
                     "--pool", "inline"])
        assert code == 1  # batch completed, but a request failed
        captured = capsys.readouterr()
        assert "error" in captured.out or "error" in captured.err
        assert "ag-a" in captured.out  # the good request was still served

    def test_bad_spec_rejected(self, tmp_path, capsys):
        requests = _write_requests(tmp_path, [{"topology": "nope"}])
        code = main(["serve-batch", "--requests", requests,
                     "--pool", "inline"])
        assert code == 1
        assert "unknown topology" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        ({"chunks": "two"}, "request #1: invalid int value for chunks"),
        ({"chassis": "x"}, "request #1: invalid int value for chassis"),
        ({"method": "quantum"}, "request #1: unknown method 'quantum'"),
        ({"epoch_mode": "sideways"},
         "request #1: unknown epoch_mode 'sideways'"),
        ({"switch_model": 7}, "request #1: unknown switch_model 7"),
        ({"chunk_bytes": 1e6}, "request #1: unknown key(s) chunk_bytes"),
    ], ids=["chunks", "chassis", "method", "epoch_mode", "switch_model",
            "unknown-key"])
    def test_compact_spec_is_outside_input(self, tmp_path, capsys, bad,
                                           message):
        # a bad value or an unknown key is a typed error naming the
        # request — never a traceback, never a silently ignored key
        requests = _write_requests(
            tmp_path, BATCH[:1] + [{"topology": "dgx1", **bad}])
        code = main(["serve-batch", "--requests", requests,
                     "--pool", "inline"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: " + message)
        assert "Traceback" not in captured.err
        assert captured.out == ""  # refused before anything was served

    def test_compact_spec_shares_the_synth_vocabulary(self):
        from repro.cli import _request_from_spec
        from repro.core.config import EpochMode
        from repro.core.solve import Method

        # every synth request flag is a spec key, `symmetry` included
        request = _request_from_spec(
            {"topology": "torus", "chassis": "3", "collective": "alltoall",
             "chunks": 2, "chunk_size": "25e3", "epochs": 12,
             "method": "lp", "epoch_mode": "slowest", "time_limit": 9,
             "mip_gap": 0.25, "symmetry": "off"}, 0)
        assert request.topology.num_gpus == 9
        assert request.demand.num_triples == 2 * 9 * 8
        assert request.method is Method.LP
        config = request.config
        assert (config.chunk_bytes, config.num_epochs) == (25e3, 12)
        assert config.epoch_mode is EpochMode.SLOWEST_LINK
        assert (config.solver.time_limit, config.solver.mip_gap,
                config.solver.symmetry) == (9.0, 0.25, "off")
        assert request.tag == "torus/alltoall#0"
        # defaults are synth's own; null means "not given"
        plain = _request_from_spec({"topology": "dgx1", "epochs": None,
                                    "tag": "t"}, 3)
        assert plain.tag == "t" and plain.method is Method.AUTO
        assert plain.config.solver.symmetry == "auto"
        assert plain.config.num_epochs is None


class TestCacheVerb:
    def test_missing_directory_is_an_error_not_a_mkdir(self, tmp_path,
                                                       capsys):
        missing = tmp_path / "typo-dir"
        code = main(["cache", "--dir", str(missing)])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()  # inspection created nothing


    def test_stats_list_purge(self, tmp_path, capsys):
        requests = _write_requests(tmp_path, BATCH[:1])
        cache_dir = str(tmp_path / "cache")
        assert main(["serve-batch", "--requests", requests,
                     "--cache-dir", cache_dir, "--pool", "inline"]) == 0
        capsys.readouterr()

        assert main(["cache", "--dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries      : 1 (0 stale)" in out

        assert main(["cache", "--dir", cache_dir, "--action", "list"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out

        assert main(["cache", "--dir", cache_dir, "--action", "purge"]) == 0
        assert "purged" in capsys.readouterr().out
        assert main(["cache", "--dir", cache_dir]) == 0
        assert "entries      : 0" in capsys.readouterr().out
