#!/usr/bin/env python3
"""Adapting a collective to link failures (§1: "This new mode of thinking
provides an opportunity to improve other aspects of machine learning
collectives such as topology design and adapting to failures").

A DGX1 loses one NVLink pair mid-training. Ring-based schedules (NCCL-style)
break outright — the ring through the dead link no longer exists — while
TE-CCL just re-plans on the degraded fabric and routes around the failure at
a modest bandwidth cost. The re-plan is a plain ``synthesize`` on the
degraded fabric, replayed through the conformance oracle before it is
trusted.

Run:  python examples/failure_adaptation.py
"""

from dataclasses import replace

from repro import collectives, topology
from repro.baselines import find_ring
from repro.core import TecclConfig, synthesize
from repro.errors import TopologyError
from repro.simulate import check_schedule
from repro.topology import without_links

healthy = topology.dgx1()
demand = collectives.allgather(healthy.gpus, 1)
config = TecclConfig(chunk_bytes=25e3, num_epochs=14)

baseline = synthesize(healthy, demand, config)
print(f"healthy fabric : finish {baseline.finish_time * 1e6:6.2f} us "
      f"({baseline.schedule.num_sends} sends)")

# kill three of the four cross-quad NVLink pairs: only 3<->7 still bridges
# the quads, so no GPU-only ring can exist any more
dead = [(0, 4), (4, 0), (1, 5), (5, 1), (2, 6), (6, 2)]
degraded = without_links(healthy, dead, name="DGX1-deg")
print(f"failure        : links 0-4, 1-5, 2-6 down "
      f"({len(degraded.links)} of {len(healthy.links)} links left)")

ring = find_ring(healthy)
try:
    find_ring(degraded)
    print("ring baseline  : still finds a ring (failure missed the ring)")
except TopologyError:
    print(f"ring baseline  : ring {ring} is broken -> NCCL-style schedule "
          "unusable")

# re-plan on the degraded fabric. The fixed horizon is dropped (it was
# sized for the healthy fabric) so the path bound sizes the new model.
adapted = synthesize(degraded, demand, replace(config, num_epochs=None))
check_schedule(adapted.schedule, degraded, demand,
               adapted.plan).raise_on_violation()
slowdown = 100 * (adapted.finish_time - baseline.finish_time) \
    / baseline.finish_time
print(f"re-planned     : finish {adapted.finish_time * 1e6:6.2f} us "
      f"({adapted.schedule.num_sends} sends, {slowdown:+.1f}% vs healthy, "
      f"K={adapted.plan.num_epochs})")
print("schedule validated on the degraded fabric")
