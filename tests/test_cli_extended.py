"""Tests for the compare/verify/impact/upgrade CLI subcommands, and the
smoke pins for the verbs no other CLI test reaches (``obs *``, ``explain``,
``synth --partitions``, ``serve-batch``'s file outputs)."""

import contextlib
import io
import json

import pytest

from repro.cli import main


class TestTopologyCatalog:
    def test_new_fabrics_listed(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        for name in ("fattree", "torus", "hypercube", "leafspine"):
            assert name in out

    def test_synth_on_hypercube(self, capsys):
        code = main(["synth", "--topology", "hypercube", "--chassis", "2",
                     "--collective", "allgather", "--chunk-size", "1e6"])
        assert code == 0
        assert "finish time" in capsys.readouterr().out


class TestCompare:
    def test_allgather_table(self, capsys):
        code = main(["compare", "--topology", "dgx1",
                     "--collective", "allgather", "--chunk-size", "1e6",
                     "--time-limit", "30"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("te-ccl", "shortest-path", "ring", "binomial-trees",
                     "blink-trees"):
            assert name in out
        # te-ccl must top the table (smallest finish = first data row)
        first_row = out.splitlines()[1]
        assert first_row.startswith("te-ccl")

    def test_alltoall_table(self, capsys):
        code = main(["compare", "--topology", "torus", "--chassis", "2",
                     "--collective", "alltoall", "--chunk-size", "1e6",
                     "--time-limit", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "te-ccl" in out and "shortest-path" in out
        assert "ring" not in out  # allgather-only baselines excluded


class TestVerify:
    def test_export_then_verify(self, tmp_path, capsys):
        target = tmp_path / "algo.xml"
        assert main(["synth", "--topology", "dgx1",
                     "--collective", "allgather",
                     "--chunk-size", "25e3", "--epochs", "10",
                     "--export", str(target)]) == 0
        capsys.readouterr()
        code = main(["verify", "--xml", str(target), "--topology", "dgx1",
                     "--collective", "allgather", "--chunk-size", "25e3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all demanded chunks delivered" in out

    def test_verify_against_wrong_collective_fails(self, tmp_path, capsys):
        target = tmp_path / "algo.xml"
        assert main(["synth", "--topology", "dgx1",
                     "--collective", "broadcast",
                     "--chunk-size", "25e3", "--epochs", "10",
                     "--export", str(target)]) == 0
        capsys.readouterr()
        code = main(["verify", "--xml", str(target), "--topology", "dgx1",
                     "--collective", "allgather", "--chunk-size", "25e3"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestImpact:
    def test_hypercube_impact_table(self, capsys):
        code = main(["impact", "--topology", "hypercube", "--chassis", "2",
                     "--collective", "allgather", "--chunk-size", "1e6",
                     "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slowdown" in out
        assert out.count("\n") == 4  # header + 3 rows


class TestUpgrade:
    def test_upgrade_table(self, capsys):
        code = main(["upgrade", "--topology", "hypercube", "--chassis", "2",
                     "--collective", "allgather", "--chunk-size", "1e6",
                     "--factor", "2", "--top", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "improvement" in out
        assert out.count("%") >= 4


class TestWorkload:
    def test_pipeline_job_on_hypercube(self, capsys):
        code = main(["workload", "--topology", "hypercube", "--chassis",
                     "2", "--job", "pipeline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "step total" in out
        assert "activations" in out and "gradients" in out

    def test_dlrm_job_on_dgx1(self, capsys):
        code = main(["workload", "--topology", "dgx1", "--job", "dlrm",
                     "--time-limit", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "emb-forward" in out
        assert "solver time" in out

    def test_unknown_job_rejected(self):
        with pytest.raises(SystemExit):
            main(["workload", "--topology", "dgx1", "--job", "nonsense"])


# ----------------------------------------------------------------------
# smoke pins: one case table over the verbs that had no CLI coverage. Each
# case is an exit code plus the label column of the output — the
# behavioural reference a restructure of cli.py is judged against.
# ----------------------------------------------------------------------
def _run(argv):
    """``main(argv)`` with stdout captured (usable from a module fixture)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One traced ``serve-batch`` run plus a ring dump: the files every
    obs/explain case below reads, by placeholder name."""
    from repro.obs import recorder as flight

    root = tmp_path_factory.mktemp("served")
    files = {name: str(root / name) for name in (
        "requests", "metrics", "responses", "one", "trace", "chrome",
        "dump", "dump2", "rules", "firing", "quiet", "pop", "flight")}

    def write(name, doc):
        with open(files[name], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

    write("requests", [{"topology": "dgx1", "collective": "allgather",
                        "chunk_size": 25e3, "epochs": 10, "tag": "ag"}])
    write("rules", [{"name": "always", "op": ">=", "threshold": 1,
                     "metric": "planner_requests_total"}])
    write("firing", {"alerts": [
        {"name": "hot", "severity": "critical", "metric": "m",
         "value": 2.0, "op": ">", "threshold": 1.0}]})
    write("quiet", {"alerts": []})
    try:
        files["serve"] = _run([
            "serve-batch", "--requests", files["requests"],
            "--pool", "inline", "--metrics-file", files["metrics"],
            "--responses-file", files["responses"],
            "--trace", files["trace"],
            "--flight-dir", files["flight"]])
    finally:
        flight.set_dump_dir(None)  # --flight-dir is process-global
    with open(files["responses"], "r", encoding="utf-8") as handle:
        write("one", json.load(handle)[0])
    assert _run(["obs", "dump", "--output", files["dump"]])[0] == 0
    return files


SMOKE_CASES = [
    # (argv with {file} placeholders, exit code, stdout labels, JSON written)
    ("obs summary --trace {trace} --top 5", 0,
     ["phase ", "planner.submit", "leaf coverage", "spans        :"], None),
    ("obs export-trace --trace {trace} --output {chrome}", 0,
     ["exported     :", "spans; load in"], "chrome"),
    ("obs metrics --file {metrics}", 0,
     ["metric ", "planner_requests_total", "counter    1",
      "planner_serve_latency_seconds", "histogram  count 1 p50"], None),
    ("obs metrics --file {metrics} --format prometheus", 0,
     ["# TYPE planner_requests_total counter\nplanner_requests_total 1\n",
      'planner_serve_latency_seconds_bucket{le="+Inf"} 1'], None),
    ("obs metrics --file {metrics} --format json", 0,
     ['"planner_requests_total": {'], None),
    ("obs dump --output {dump2}", 0,
     ["dumped       :", "flight dump: reason=manual", "+t(s) kind"], None),
    ("obs dump --file {dump} --limit 2", 0,
     ["flight dump: reason=manual", "earlier records not shown"], None),
    ("obs dump --file {dump} --json", 0,
     ['"kind": "flight_header"', '"reason": "manual"'], None),
    ("obs alerts --metrics-file {metrics}", 0,
     ["rules        : 7 evaluated, 0 firing"], None),
    ("obs alerts --metrics-file {metrics} --rules {rules}", 1,
     ["rules        : 1 evaluated, 1 firing",
      "  [warning] always: planner_requests_total=1 >= 1"], None),
    ("obs alerts --metrics-file {metrics} --rules {rules} --json",
     1, ['"name": "always"', '"severity": "warning"'], None),
    ("obs alerts --status-file {firing}", 1,
     ["  [critical] hot: m = 2 > 1"], None),
    ("obs alerts --status-file {firing} --json", 1,
     ['"name": "hot"'], None),
    ("obs alerts --status-file {quiet}", 0,
     ["alerts       : none firing"], None),
    ("fleet status --status-file {firing}", 0,
     ["alerts       : 1 firing", "  [critical] hot: m = 2 > 1"], None),
    ("explain --last --flight-dir {flight}", 0,
     ["source        : solve", "tag           : ag", "conformance   :",
      "solve phases:", "serve phases:"], None),
    ("explain --response {one}", 0,
     ["source        : solve", "fingerprint   :", "serve time    :"], None),
    ("explain --response {responses}", 0,
     ["source        : solve", "tag           : ag"], None),
    ("explain --response {responses} --json", 0,
     ['"source": "solve"', '"tag": "ag"'], None),
    ("synth --topology dgx1 --collective alltoall --chunk-size 25e3 "
     "--partitions 2 --check --export-json {pop}", 0,
     ["method       : pop-lp (2 partitions, jobs=1)", "horizon (K)  :",
      "exported     :", "conformance  : conformant", "replayed     :"],
     "pop"),
]


class TestSmokePins:
    def test_serve_batch_file_outputs(self, served):
        from repro import obs

        code, out = served["serve"]
        assert code == 0
        for label in ("requests     : 1", "cache        : 0 hits / 1 misses",
                      "solves       : 1 (0 coalesced)", "latency      : p50",
                      "metrics      :", "responses    :", "trace        :"):
            assert label in out
        with open(served["metrics"], "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
        assert metrics["planner_requests_total"] == {"type": "counter",
                                                     "value": 1.0}
        assert metrics["pool_submitted_total"]["value"] == 1.0
        with open(served["responses"], "r", encoding="utf-8") as handle:
            responses = json.load(handle)
        assert [r["tag"] for r in responses] == ["ag"]
        assert responses[0]["explain"]["source"] == "solve"
        names = {e["name"] for e in obs.read_events(served["trace"])}
        assert {"planner.submit", "pool.solve", "synthesize"} <= names
        assert obs.get_tracer() is None  # --trace ended with the verb

    @pytest.mark.parametrize("command, code, labels, written", SMOKE_CASES,
                             ids=[case[0] for case in SMOKE_CASES])
    def test_verb(self, served, capsys, command, code, labels, written):
        argv = [word.format(**served) for word in command.split()]
        assert main(argv) == code
        out = capsys.readouterr().out
        for label in labels:
            assert label in out
        if written is not None:
            with open(served[written], "r", encoding="utf-8") as handle:
                assert json.load(handle)

    def test_obs_dump_rejects_a_non_positive_limit(self, served, capsys):
        # --limit 0 used to print every record plus an "N earlier records
        # not shown" footer ([-0:]); a negative one dropped the oldest
        for limit in ("0", "-1"):
            assert main(["obs", "dump", "--file", served["dump"],
                         "--limit", limit]) == 1
            captured = capsys.readouterr()
            assert "--limit must be a positive" in captured.err
            assert captured.out == ""
