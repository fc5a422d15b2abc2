"""Multi-job admission over a shared fabric: priority capacity shares.

The §5 multi-tenant formulation merges demands into *one* solve with
weighted completion times — the right tool when tenants share one
synthesis. A fleet is the other regime: many independent recurring jobs,
admitted and retired at different times, each wanting its own schedule
*now*. The orchestrator splits the fabric instead of the objective: each
admitted job plans against the live fabric scaled to its priority share
(reusing :func:`repro.topology.transforms.scale_capacity`), so no job's
plan assumes bandwidth another job was promised, and a job's admission
only re-fingerprints — never re-formulates — its neighbours.

Degradation handling rides on the :class:`~repro.fleet.controller
.AdaptationController`: one fabric event fans replans out across
every affected job through the planner's solve pool in a single batch.
"""

from __future__ import annotations

from repro.errors import FleetError
from repro.fleet.controller import (AdaptationController, AdaptationDecision,
                                    CostGate, FleetJob, RegistryEntry)
from repro.fleet.estimate import FabricEstimator
from repro.fleet.telemetry import TelemetrySource
from repro.fleet.wal import WriteAheadLog
from repro.service.planner import Planner
from repro.topology.topology import Topology
from repro.topology.transforms import scale_capacity


class FleetOrchestrator:
    """Admission + capacity shares over one adaptation controller.

    Args:
        topology: the declared shared fabric.
        source: the telemetry stream.
        planner: the serving layer all jobs' solves route through.
        estimator / gate / wal / compact_every: forwarded to the
            controller (``wal`` makes every admission, retirement, and
            adaptation durable; see :mod:`repro.fleet.wal`).

    Shares are plain priority proportions: job *j* sees the live fabric
    with every capacity scaled by ``priority_j / Σ priorities``. With one
    job admitted the scale is 1.0 and the orchestrator is exactly the
    controller.
    """

    def __init__(self, topology: Topology, source: TelemetrySource,
                 planner: Planner, *,
                 estimator: FabricEstimator | None = None,
                 gate: CostGate | None = None,
                 wal: WriteAheadLog | None = None,
                 compact_every: int = 256) -> None:
        self.controller = AdaptationController(
            topology, source, planner, estimator=estimator, gate=gate,
            fabric_view=self._job_view, wal=wal,
            compact_every=compact_every)

    def recover(self) -> dict:
        """Rehydrate from the WAL (delegates to the controller)."""
        return self.controller.recover()

    def plan_missing(self, names: list[str] | None = None,
                     ) -> dict[str, RegistryEntry]:
        """Fresh-plan admitted jobs whose schedule was dropped (e.g. a
        recovered incumbent that failed conformance re-vetting); plans
        run against each job's capacity share (delegates)."""
        return self.controller.plan_missing(names)

    # ------------------------------------------------------------------
    # capacity shares
    # ------------------------------------------------------------------
    def share(self, name: str) -> float:
        """Job ``name``'s current fraction of every link's capacity."""
        jobs = self.controller._jobs_snapshot()
        if name not in jobs:
            raise FleetError(f"no job {name!r} admitted")
        total = sum(job.priority for job in jobs.values())
        return jobs[name].priority / total

    def _job_view(self, job: FleetJob, live: Topology) -> Topology:
        factor = self.share(job.name)
        if factor == 1.0:
            return live
        return scale_capacity(live, factor,
                              name=f"{live.name}-{job.name}")

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, job: FleetJob) -> RegistryEntry:
        """Admit a job: plan it on its share, shrink the incumbents'.

        The new job is planned first (its share must be feasible before
        anyone else is disturbed); then every incumbent is replanned
        onto its reduced share in one batch through the solve pool.
        """
        incumbents = self.controller.registry.active_jobs()
        entry = self.controller.add_job(job)
        if incumbents:
            self._replan_incumbents(
                incumbents, f"admission of {job.name!r} rescaled shares")
        return entry

    def retire(self, name: str) -> None:
        """Retire a job and grow the survivors onto the freed share."""
        self.controller.remove_job(name)
        survivors = self.controller.registry.active_jobs()
        if survivors:
            self._replan_incumbents(
                survivors, f"retirement of {name!r} rescaled shares")

    def _replan_incumbents(self, names: list[str],
                           reason: str) -> list[AdaptationDecision]:
        return self.controller.replan_all(reason, names=names)

    # ------------------------------------------------------------------
    # the loop (delegated)
    # ------------------------------------------------------------------
    def step(self) -> list[AdaptationDecision]:
        return self.controller.step()

    def start(self, interval: float = 1.0) -> None:
        self.controller.start(interval)

    def stop(self) -> None:
        self.controller.stop()

    @property
    def registry(self):
        return self.controller.registry

    @property
    def estimator(self):
        return self.controller.estimator

    def stats(self) -> dict:
        return self.controller.stats()

    def status(self) -> dict:
        status = self.controller.status()
        status["shares"] = {name: self.share(name)
                            for name in sorted(status["jobs"])}
        return status
