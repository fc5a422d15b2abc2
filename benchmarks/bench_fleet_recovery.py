"""Durability overhead guard: the WAL must be cheap, recovery fast.

Write-ahead persistence rides the fleet daemon's every tick, so its cost
is a standing tax on the control plane. Two numbers are held to a bar:

* **WAL overhead per decision** — every decision adds one durable record
  to the step that produced it, so the bar is the measured cost of one
  ``append`` (fsync off: the crash sweep covers durability; this bench
  isolates the bookkeeping cost) over the latency of a *decision-carrying*
  step — one that polls, estimates, gates, and warm-replans. The ratio
  must stay under ``OVERHEAD_BUDGET``.
* **recovery time vs registry size** — rehydrate controllers whose WALs
  hold growing registries (more jobs → more durable schedules, each
  re-vetted through the conformance oracle on recovery); reported as a
  table and asserted to stay under ``RECOVERY_BUDGET_S`` at the largest
  size, so recovery can never become the new outage.

Publishes ``benchmarks/results/BENCH_fleet_recovery.json``.
"""

import statistics
import time

import pytest

from _common import write_result
from repro import collectives, topology
from repro.analysis import Table
from repro.core import TecclConfig
from repro.fleet import (AdaptationController, FabricEstimator, FleetJob,
                         SyntheticTelemetry, WriteAheadLog)
from repro.service import Planner

pytestmark = pytest.mark.fleet

#: one decision's durable record must cost < 5% of the step that made it
OVERHEAD_BUDGET = 0.05
#: recovering the largest registry must finish within this wall budget
RECOVERY_BUDGET_S = 5.0
#: append microbench iterations (medians over batches)
APPENDS = 2000
#: registry sizes (jobs) for the recovery scaling axis
FLEET_SIZES = (1, 4, 8)


def _controller(topo, planner, wal=None):
    source = SyntheticTelemetry(topo, events=[])
    return AdaptationController(
        topo, source, planner, wal=wal,
        estimator=FabricEstimator(topo, smoothing=1.0, min_samples=1))


def _append_cost_s(tmp_path) -> float:
    """Median cost of one durable append of a decision-sized record."""
    record = {"job": "job-0", "time": 3.0, "action": "replan",
              "reason": "replan on the live fabric",
              "predicted": 1.5, "active_finish": 1.0,
              "new_finish": 1.2, "solve_time": 0.004}
    wal = WriteAheadLog(tmp_path / "append.wal", fsync=False)
    batches = []
    for _ in range(10):
        start = time.perf_counter()
        for _ in range(APPENDS // 10):
            wal.append("decision", record, now=3.0)
        batches.append((time.perf_counter() - start) / (APPENDS // 10))
    wal.close()
    return statistics.median(batches)


def _decision_step_s(topo, config) -> float:
    """Latency of a step that carries a decision (poll → gate → replan)."""
    from repro.fleet import LinkEvent

    times = []
    for _ in range(5):
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=2.0, link=(0, 1), factor=0.4)])
        with Planner(executor="inline") as planner:
            daemon = _controller_from(topo, planner, source)
            daemon.add_job(FleetJob(
                name="job", demand=collectives.alltoall(topo.gpus, 1),
                config=config))
            for _ in range(4):
                start = time.perf_counter()
                decisions = daemon.step()
                elapsed = time.perf_counter() - start
                if decisions:
                    times.append(elapsed)
    return statistics.median(times)


def _controller_from(topo, planner, source, wal=None):
    return AdaptationController(
        topo, source, planner, wal=wal,
        estimator=FabricEstimator(topo, smoothing=1.0, min_samples=1))


def test_wal_overhead_and_recovery_scaling(tmp_path, benchmark):
    topo = topology.ring(8, capacity=1.0)
    config = TecclConfig(chunk_bytes=1.0)

    # -- axis 1: per-decision journaling cost vs step latency -----------
    append_s = _append_cost_s(tmp_path)
    step_s = _decision_step_s(topo, config)
    overhead = append_s / step_s

    # -- axis 2: recovery time vs registry size -------------------------
    table = Table(title="fleet WAL: recovery wall time vs registry size",
                  columns=["jobs", "entries", "recover ms"])
    recovery_rows = []
    for size in FLEET_SIZES:
        walpath = tmp_path / f"recover-{size}.wal"
        with Planner(executor="inline") as planner:
            wal = WriteAheadLog(walpath, fsync=False)
            wal.attach_lease()
            daemon = _controller(topo, planner, wal=wal)
            for index in range(size):
                daemon.add_job(FleetJob(
                    name=f"job-{index}",
                    demand=collectives.alltoall(topo.gpus, 1),
                    config=config))
            for _ in range(3):
                daemon.step()
            wal.close()
        with Planner(executor="inline") as planner:
            wal = WriteAheadLog(walpath, fsync=False)
            wal.attach_lease(takeover=True)
            fresh = _controller(topo, planner, wal=wal)
            start = time.perf_counter()
            provenance = fresh.recover()
            recover_s = time.perf_counter() - start
            wal.close()
        assert provenance["entries_recovered"] == size
        table.add(f"{size}-job fleet", jobs=size,
                  entries=len(provenance["entries_dropped"]) + size,
                  **{"recover ms": round(recover_s * 1e3, 2)})
        recovery_rows.append({"jobs": size, "recover_s": recover_s})

    # one representative recovery registered with pytest-benchmark
    with Planner(executor="inline") as planner:
        wal = WriteAheadLog(tmp_path / f"recover-{FLEET_SIZES[-1]}.wal",
                            fsync=False)
        wal.attach_lease(takeover=True)

        def recover_once():
            fresh = _controller(topo, planner, wal=wal)
            return fresh.recover()

        benchmark(recover_once)
        wal.close()

    text = table.render() + (
        f"\n\nper-decision : append {append_s * 1e6:.1f} us vs "
        f"decision step {step_s * 1e3:.3f} ms -> overhead "
        f"{100 * overhead:.2f}% (budget {100 * OVERHEAD_BUDGET:.0f}%)")
    write_result(
        "BENCH_fleet_recovery", text,
        data={
            "append_s": append_s,
            "decision_step_s": step_s,
            "wal_overhead": overhead,
            "overhead_budget": OVERHEAD_BUDGET,
            "recovery": recovery_rows,
            "recovery_budget_s": RECOVERY_BUDGET_S,
        })

    assert overhead <= OVERHEAD_BUDGET, (
        f"one durable decision record costs {100 * overhead:.2f}% of a "
        f"decision-carrying step (budget {100 * OVERHEAD_BUDGET:.0f}%)")
    assert recovery_rows[-1]["recover_s"] <= RECOVERY_BUDGET_S
    # recovery work scales with registry size, not WAL history: the
    # per-job cost at the largest fleet must stay within ~4x of the
    # smallest (re-vetting dominates; superlinear growth means replaying
    # history per entry snuck in)
    per_job = [row["recover_s"] / row["jobs"] for row in recovery_rows]
    assert per_job[-1] <= per_job[0] * 4.0
