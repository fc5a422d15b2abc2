"""Smoke tests: the fast example scripts run end-to-end as documented.

The slow, sweep-style examples (`large_scale_astar.py`, `epoch_tuning.py`,
`multi_tenant_cluster.py`) are exercised implicitly by the benchmark suite's
equivalent workloads and stay out of the unit-test budget.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "method        : milp" in out
        assert "simulated     : ok=True" in out
        assert "msccl xml" in out

    def test_motivating_examples(self):
        out = run_example("motivating_examples.py")
        assert "TE-CCL schedule finishes: 8.0 s" in out
        assert "same optimum" in out
        assert "copy halves the broadcast" in out

    def test_failure_adaptation(self):
        out = run_example("failure_adaptation.py")
        assert "ring" in out and "broken" in out
        assert "re-planned" in out
        assert "validated on the degraded fabric" in out

    def test_fleet_control(self):
        out = run_example("fleet_control.py")
        assert "link 0->1 drops to 40% capacity" in out
        assert "replan" in out
        assert "conformance-vetted before activation" in out
        assert "zero non-conformant schedules activated: ok" in out

    def test_fleet_recovery(self):
        out = run_example("fleet_recovery.py")
        assert "lease acquired" in out
        assert "recovered 1 schedule(s)" in out
        assert "conformance_ok=True" in out
        assert "matches the pre-crash incumbent exactly" in out
        assert "fenced generation 2" in out
        assert "durable control plane: ok" in out

    def test_topology_design(self):
        out = run_example("topology_design.py")
        assert "greedy augmentation" in out
        assert "search never degraded the design: ok" in out

    def test_msccl_pipeline(self):
        out = run_example("msccl_pipeline.py")
        assert "instructions fired" in out
        assert "every demanded chunk delivered" in out
        assert "wire occupancy" in out

    def test_calibration_loop(self):
        out = run_example("calibration_loop.py")
        assert "links fitted" in out
        assert "calibration penalty" in out

    def test_allreduce_composition(self):
        out = run_example("allreduce_composition.py")
        assert "phase 1 (RS)   : lp" in out
        assert "phase 2 (AG)   : milp" in out
        assert "vs ring" in out

    def test_training_job_scheduling(self):
        out = run_example("training_job_scheduling.py")
        assert "== dlrm:" in out and "== moe:" in out
        assert out.count("step total") == 2

    def test_observability(self):
        out = run_example("observability.py")
        assert "synthesized   : milp" in out
        assert "leaf coverage" in out
        assert "chrome trace" in out
        assert "spans" in out

    def test_planner_service(self):
        out = run_example("planner_service.py")
        assert "cold solve" in out
        assert "hit=True" in out
        assert "1 hits" not in out  # two hits: the warm call + the rebuild
        assert "2 hits / 1 misses / 1 solves" in out

    @pytest.mark.parametrize("name", [
        "quickstart.py", "motivating_examples.py", "failure_adaptation.py",
        "multi_tenant_cluster.py", "large_scale_astar.py", "epoch_tuning.py",
        "topology_design.py", "msccl_pipeline.py", "calibration_loop.py",
        "congestion_study.py", "allreduce_composition.py",
        "training_job_scheduling.py", "planner_service.py",
        "observability.py",
    ])
    def test_examples_compile(self, name):
        source = (EXAMPLES / name).read_text(encoding="utf-8")
        compile(source, name, "exec")
