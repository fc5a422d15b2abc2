"""The fleet control plane: telemetry → estimate → replan, online.

Everything below the planner service is offline machinery — solvers,
caches, a conformance oracle. This package is the loop that
*drives* them from observed fabric state, turning the repo from a solver
library into a serving system:

* :mod:`~repro.fleet.telemetry` — pluggable link-metric streams
  (synthetic seeded scenarios, recorded traces);
* :mod:`~repro.fleet.estimate` — EWMA + hysteresis fabric estimation,
  producing a live :class:`~repro.topology.Topology` view;
* :mod:`~repro.fleet.controller` — the adaptation daemon: cost-gated
  replans through the :class:`~repro.service.Planner`, every activation
  vetted by the conformance oracle, with an active/pending/rollback
  schedule registry;
* :mod:`~repro.fleet.orchestrator` — the controller as a share policy:
  each job plans on its priority share of the live fabric, and admitting
  or retiring a job replans the others onto their new shares in one batch;
* :mod:`~repro.fleet.wal` — write-ahead persistence: a checksummed,
  fsync'd JSONL log of every lifecycle transition, snapshot compaction,
  crash recovery (:meth:`AdaptationController.recover`), and
  generation-lease fencing for graceful daemon handoff.

Quickstart::

    from repro import collectives, topology
    from repro.core import TecclConfig
    from repro.fleet import (AdaptationController, FleetJob, LinkEvent,
                             SyntheticTelemetry)
    from repro.service import Planner

    topo = topology.ring(8, capacity=1.0)
    source = SyntheticTelemetry(
        topo, events=[LinkEvent(at=2.0, link=(0, 1), factor=0.5)])
    with Planner(executor="inline") as planner:
        daemon = AdaptationController(topo, source, planner)
        daemon.add_job(FleetJob(name="alltoall",
                                demand=collectives.alltoall(topo.gpus, 1),
                                config=TecclConfig(chunk_bytes=1.0)))
        for _ in range(6):
            for decision in daemon.step():
                print(decision)
"""

from repro.fleet.controller import (AdaptationController, AdaptationDecision,
                                    CostGate, FleetJob, RegistryEntry,
                                    ScheduleRegistry, ScheduleStatus,
                                    links_used_by, predicted_finish)
from repro.fleet.estimate import (FabricEstimator, LinkEstimate, LinkHealth,
                                  LinkTransition)
from repro.fleet.orchestrator import FleetOrchestrator
from repro.fleet.telemetry import (LinkEvent, LinkSample, SyntheticTelemetry,
                                   TelemetrySource, TraceTelemetry)
from repro.fleet.wal import (GenerationLease, WalState, WriteAheadLog,
                             atomic_write_json)

__all__ = [
    "LinkSample", "LinkEvent", "TelemetrySource", "SyntheticTelemetry",
    "TraceTelemetry",
    "FabricEstimator", "LinkEstimate", "LinkHealth", "LinkTransition",
    "AdaptationController", "AdaptationDecision", "CostGate", "FleetJob",
    "RegistryEntry", "ScheduleRegistry", "ScheduleStatus",
    "predicted_finish", "links_used_by",
    "FleetOrchestrator",
    "WriteAheadLog", "GenerationLease", "WalState", "atomic_write_json",
]
