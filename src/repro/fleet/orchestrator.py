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

The orchestrator *is* an :class:`~repro.fleet.controller
.AdaptationController` whose fabric view is the job's share, so every
plan the controller makes — admission, adaptation, the post-recovery
:meth:`plan_missing` sweep — lands on that share.
"""

from __future__ import annotations

from repro.errors import FleetError
from repro.fleet.controller import (AdaptationController, FleetJob,
                                    RegistryEntry)
from repro.topology.topology import Topology
from repro.topology.transforms import scale_capacity


class FleetOrchestrator(AdaptationController):
    """An adaptation controller whose jobs plan on priority shares.

    Job *j* sees the live fabric with every capacity scaled by
    ``priority_j / Σ priorities``. Admitting or retiring a job moves every
    share, so both replan the other jobs onto theirs in one batch through
    the solve pool. With one job admitted the scale is 1.0 and the
    orchestrator plans exactly like the controller.
    """

    def share(self, name: str) -> float:
        """Job ``name``'s current fraction of every link's capacity."""
        jobs = self._jobs_snapshot()
        if name not in jobs:
            raise FleetError(f"no job {name!r} admitted")
        return jobs[name].priority / sum(job.priority
                                         for job in jobs.values())

    def _view(self, job: FleetJob, live: Topology) -> Topology:
        factor = self.share(job.name)
        if factor == 1.0:
            return live
        return scale_capacity(live, factor, name=f"{live.name}-{job.name}")

    def add_job(self, job: FleetJob) -> RegistryEntry:
        """Admit a job: plan it on its share, then shrink the incumbents'
        (its share must be feasible before anyone else is disturbed)."""
        incumbents = self.registry.active_jobs()
        entry = super().add_job(job)
        if incumbents:
            self.replan_all(f"admission of {job.name!r} rescaled shares",
                            names=incumbents)
        return entry

    def remove_job(self, name: str) -> None:
        """Retire a job and grow the survivors onto the freed share."""
        super().remove_job(name)
        survivors = self.registry.active_jobs()
        if survivors:
            self.replan_all(f"retirement of {name!r} rescaled shares",
                            names=survivors)

    def status(self) -> dict:
        status = super().status()
        status["shares"] = {name: self.share(name)
                            for name in sorted(status["jobs"])}
        return status
