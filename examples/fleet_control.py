#!/usr/bin/env python3
"""The fleet control plane closing the loop: telemetry → estimate → replan.

A ring of 8 GPUs runs a recurring alltoall. Mid-stream, cross-tenant
congestion drags one link to 40% of its declared bandwidth. Nobody calls
``replan`` — the daemon does: synthetic telemetry reports the slowdown, the
EWMA estimator (with hysteresis, so one noisy probe cannot thrash the
planner) reclassifies the link as degraded, the cost gate decides the
predicted finish-time regression is worth a re-solve, and the controller
replans through the planner service. The adapted schedule is replayed
through the conformance oracle *before* it replaces the incumbent — the
registry refuses to activate anything else.

Run:  python examples/fleet_control.py
"""

from repro import collectives, topology
from repro.core import TecclConfig
from repro.fleet import (AdaptationController, FleetJob, LinkEvent,
                         SyntheticTelemetry)
from repro.service import Planner

topo = topology.ring(8, capacity=1.0)
demand = collectives.alltoall(topo.gpus, 1)
config = TecclConfig(chunk_bytes=1.0)

# congestion arrives at t=2 on link 0->1 and stays
source = SyntheticTelemetry(
    topo, events=[LinkEvent(at=2.0, link=(0, 1), factor=0.4)])

with Planner(executor="inline") as planner:
    daemon = AdaptationController(topo, source, planner)
    entry = daemon.add_job(FleetJob(name="alltoall", demand=demand,
                                    config=config))
    print(f"admitted       : alltoall, finish "
          f"{entry.result.finish_time:.2f} s per iteration "
          f"(method {entry.result.method.value})")
    print("degradation    : link 0->1 drops to 40% capacity at t=2")

    for step in range(6):
        for decision in daemon.step():
            print(f"daemon         : {decision}")

    stats = daemon.stats()
    active = daemon.registry.active("alltoall")
    estimate = daemon.estimator.estimate((0, 1))
    planner_stats = planner.stats()

print(f"estimator      : link 0->1 is {estimate.health.value} "
      f"(measured at {100 * estimate.factor:.0f}% of declared)")
print(f"adapted        : finish {active.result.finish_time:.2f} s on the "
      f"live fabric, conformance-vetted before activation")
print(f"bookkeeping    : {stats['transitions']} transition(s), "
      f"{stats['replans']} replan(s), {stats['rollbacks']} rollback(s), "
      f"{planner_stats['solves']} solve(s)")
assert stats["rollbacks"] == 0 and active.conformance_ok is True
print("zero non-conformant schedules activated: ok")
