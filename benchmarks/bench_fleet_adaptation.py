"""End-to-end fleet adaptation: the control plane's acceptance bench.

A seeded fabric-wide congestion event (every link of a ring renegotiated to
70% capacity — the cloud-fabric scenario of §5.4) hits a fleet of four
recurring alltoall jobs, two of which are replicas of each other. The
:class:`~repro.fleet.AdaptationController` must

* detect the event from telemetry (EWMA crosses the degraded threshold),
* replan every affected job through the planner service, and
* activate only conformance-vetted schedules.

The headline compares the *total adaptation wall time* (polling,
estimation, gating, solves, conformance vetting, activation) against naive
re-synthesis of every affected job, one by one — what an operator without
the control plane would run. The fleet's edge is replica dedup: replicas
share one solve through the planner's fingerprint cache. Asserted is what
repeats on every host: every job replanned, nothing rolled back, replicas
on one solve, every activation conformant, and the control-plane path no
slower than the naive loop. The ratio is published as measured.

Publishes ``benchmarks/results/BENCH_fleet_adaptation.json``.
"""

import time

import pytest

from _common import write_result
from repro import collectives, topology
from repro.analysis import Table
from repro.core import TecclConfig
from repro.core.solve import synthesize
from repro.fleet import (AdaptationController, FleetJob, LinkEvent,
                         SyntheticTelemetry)
from repro.service import Planner

pytestmark = pytest.mark.fleet

#: the fabric-wide renegotiation factor (cross-tenant congestion)
CONGESTION_FACTOR = 0.7
#: telemetry polls the scenario runs for (the event lands at t=2)
STEPS = 6


def _fleet_jobs(topo):
    """Four recurring jobs: two replica pairs at two chunk granularities."""
    coarse = TecclConfig(chunk_bytes=1.0)
    fine = TecclConfig(chunk_bytes=0.5)
    return [
        FleetJob("a2a/rep0", collectives.alltoall(topo.gpus, 1), coarse),
        FleetJob("a2a/rep1", collectives.alltoall(topo.gpus, 1), coarse),
        FleetJob("fine/rep0", collectives.alltoall(topo.gpus, 2), fine),
        FleetJob("fine/rep1", collectives.alltoall(topo.gpus, 2), fine),
    ]


def test_fleet_adaptation_speedup(benchmark):
    topo = topology.ring(12, capacity=1.0)
    events = [LinkEvent(at=2.0, link=key, factor=CONGESTION_FACTOR)
              for key in topo.links]
    source = SyntheticTelemetry(topo, events=events, seed=7)

    with Planner(executor="inline") as planner:
        daemon = AdaptationController(topo, source, planner)
        admit_start = time.perf_counter()
        for job in _fleet_jobs(topo):
            daemon.add_job(job)
        admission_s = time.perf_counter() - admit_start

        adapt_wall = 0.0
        decisions = []
        for _ in range(STEPS):
            t0 = time.perf_counter()
            step_decisions = daemon.step()
            if step_decisions:
                adapt_wall += time.perf_counter() - t0
                decisions.extend(step_decisions)

        stats = daemon.stats()
        planner_stats = planner.stats()
        registry = daemon.registry
        live = daemon.estimator.live_topology()

        # the operator-without-a-control-plane baseline: re-synthesize
        # every affected job from scratch on the degraded fabric
        naive_wall = 0.0
        for name in sorted(daemon.jobs):
            job = daemon.jobs[name]
            t0 = time.perf_counter()
            synthesize(live, job.demand, job.config, method=job.method)
            naive_wall += time.perf_counter() - t0

    # -- the event was detected and every affected job replanned ---------
    assert stats["transitions"] >= 1, stats
    assert stats["replans"] == len(daemon.jobs), (stats, decisions)
    assert stats["rollbacks"] == 0 and stats["failed"] == 0, stats
    replan_decisions = [d for d in decisions if d.action == "replan"]
    assert len(replan_decisions) == len(daemon.jobs)

    # -- zero non-conformant schedules ever activated --------------------
    for entry in registry.history:
        if entry.status.value in ("active", "retired"):
            assert entry.conformance_ok is True, entry.to_dict()
    for name in registry.active_jobs():
        assert registry.active(name).conformance_ok is True

    # -- replicas deduplicated onto one solve each ----------------------
    assert planner_stats["solves"] <= 2 + len(daemon.jobs) // 2, \
        planner_stats

    # -- adaptation is no slower than naive; the ratio is published ------
    speedup = naive_wall / adapt_wall
    assert adapt_wall <= naive_wall, {
        "adapt_wall_s": adapt_wall, "naive_wall_s": naive_wall,
        "speedup": speedup}

    table = Table("Fleet adaptation vs naive per-job re-synthesis",
                  columns=["adapt s", "naive s", "speedup", "jobs",
                           "solves", "rollbacks"])
    table.add("fabric-wide congestion", **{
        "adapt s": round(adapt_wall, 2), "naive s": round(naive_wall, 2),
        "speedup": round(speedup, 2), "jobs": len(daemon.jobs),
        "solves": planner_stats["solves"] - 2,  # minus the 2 admission solves
        "rollbacks": stats["rollbacks"]})
    write_result(
        "fleet_adaptation", table.render(),
        json_name="BENCH_fleet_adaptation",
        phases={"admission": admission_s, "adaptation": adapt_wall,
                "naive_resynthesis": naive_wall},
        data={
            "topology": topo.name,
            "jobs": sorted(daemon.jobs),
            "congestion_factor": CONGESTION_FACTOR,
            "admission_s": admission_s,
            "adapt_wall_s": adapt_wall,
            "naive_wall_s": naive_wall,
            "speedup": speedup,
            "adaptation_solve_time_s": stats["adaptation_solve_time"],
            "transitions": stats["transitions"],
            "replans": stats["replans"],
            "rollbacks": stats["rollbacks"],
            "planner": {k: planner_stats[k] for k in
                        ("requests", "hits", "misses", "solves",
                         "coalesced")},
            "decisions": [str(d) for d in decisions],
            "note": "adapt = full control-plane path (poll, estimate, "
                    "gate, replica dedup through the fingerprint cache, "
                    "solve, conformance vet, activate); naive = one "
                    "synthesize per affected job on the degraded fabric. "
                    "Asserted: every job replanned, zero rollbacks, "
                    "replicas deduplicated, every activation conformant, "
                    "adapt <= naive; the speedup itself is published as "
                    "measured.",
        })

    # representative single adaptation for pytest-benchmark tracking
    def one_adaptation():
        small = topology.ring(8, capacity=1.0)
        src = SyntheticTelemetry(
            small, events=[LinkEvent(at=1.0, link=(0, 1), factor=0.5)])
        with Planner(executor="inline") as small_planner:
            ctl = AdaptationController(small, src, small_planner)
            ctl.add_job(FleetJob(
                "a2a", collectives.alltoall(small.gpus, 1),
                TecclConfig(chunk_bytes=1.0)))
            for _ in range(4):
                ctl.step()
            return ctl.stats()["replans"]

    assert benchmark.pedantic(one_adaptation, rounds=1, iterations=1) >= 1
