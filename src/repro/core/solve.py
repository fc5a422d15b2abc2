"""The synthesis facade: one entry point over MILP, LP and A*.

Implements the paper's method-selection logic (§4): demands that do not
benefit from copy (ALLTOALL-like) go to the LP — optimal and scalable;
multicast demands (ALLGATHER-like) go to the general MILP, or to A* when the
instance is declared large. The facade also owns the Appendix C hyper-edge
transformation and the multi-tenant merge of §5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.collectives.demand import Demand, TenantDemand, merge_tenants
# the module, not its names: loading repro.core runs astar, which loads
# repro.collectives, whose allreduce imports this module while astar is
# still half-built
from repro.core import astar as _astar
from repro.core.config import AStarConfig, SwitchModel, TecclConfig
from repro.core.epochs import EpochPlan, build_epoch_plan
from repro.core.lp import LpOutcome, minimize_epochs_lp, solve_lp
from repro.core.milp import MilpOutcome, solve_milp
from repro.core.schedule import FlowSchedule, Schedule, commodity_map
from repro.errors import ModelError
from repro.obs import recorder as _flight
from repro.obs.explain import solve_stats_subset
from repro.obs.trace import span as _obs_span
from repro.topology.topology import Topology
from repro.topology.transforms import HyperEdgeTopology, to_hyper_edges


class Method(enum.Enum):
    """Which formulation produced a result."""

    AUTO = "auto"
    MILP = "milp"
    LP = "lp"
    ASTAR = "astar"


@dataclass
class SynthesisResult:
    """A solved collective, whichever formulation produced it."""

    method: Method
    schedule: Schedule | FlowSchedule
    finish_time: float
    solve_time: float
    plan: EpochPlan
    #: the raw formulation outcome; ``None`` on results deserialised from a
    #: cache entry (the solver internals do not survive serialisation).
    outcome: MilpOutcome | LpOutcome | _astar.AStarOutcome | None = None
    #: set when the Appendix C transform rewrote the topology; schedules are
    #: expressed in this transformed space. Not serialised (``topology_used``
    #: carries the transformed fabric itself).
    hyper: HyperEdgeTopology | None = None
    #: the topology the schedule is expressed over (transformed when hyper)
    topology_used: Topology | None = None
    #: the demand in the schedule's node-id space (remapped when hyper)
    demand_used: Demand | None = None
    #: the config the schedule was synthesized under — the model-variant
    #: flags (switch copy semantics, store-and-forward, buffer budget) a
    #: conformance replay must honour. Serialised without ``capacity_fn``
    #: (a callable; replays of deserialised results fall back to the plan's
    #: static capacities, as they always have).
    config: TecclConfig | None = None
    #: provenance: how this result was produced (method, horizon attempts,
    #: symmetry reduction, per-phase durations) — a JSON-safe dict built in
    #: :func:`synthesize`, carried through serialisation so the planner's
    #: explain report survives cache round-trips and process boundaries.
    explain: dict | None = None
    #: the fleet WAL's encoding of :meth:`to_dict` (a
    #: :class:`repro.fleet.wal.Encoded`), built the first time the result
    #: is journaled and kept as long as the result lives. Nothing mutates
    #: a result once :func:`synthesize` returns it; a result made by
    #: ``dataclasses.replace`` starts without one.
    encoded: object | None = field(default=None, init=False, repr=False,
                                   compare=False)
    #: the :meth:`to_dict` document the planner archived it as, which the
    #: fleet WAL then encodes; kept like ``encoded``
    payload: dict | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def relabeled(self, perm, chunks=None) -> "SynthesisResult":
        """The same result with every node id mapped through ``perm``
        and, when given, every ``(source, chunk)`` commodity through
        ``chunks`` (chunk ids are labels: a canonical demand renumbers
        each source's chunks).

        Translates a result solved on a symmetry-relabeled instance back
        to the caller's labels (the planner's cache-canonicalization
        path): schedule, demand and topology relabel (an aggregated LP
        schedule has no chunk ids, so there only the demand sees
        ``chunks``); the epoch plan is invariant under any fabric
        automorphism (capacities permute onto equal capacities). The raw
        ``outcome``/``hyper`` records are dropped — they index solver
        internals in the solved space. Not valid for hyper-transformed
        results (their schedules live in the rewritten node space;
        callers gate those out).
        """
        from repro.topology.transforms import relabel as _relabel_topology
        commodity = commodity_map(perm, chunks)
        return replace(
            self,
            schedule=self.schedule.relabel(perm, chunks),
            outcome=None,
            hyper=None,
            topology_used=(None if self.topology_used is None
                           else _relabel_topology(
                               self.topology_used, perm,
                               name=self.topology_used.name)),
            demand_used=(None if self.demand_used is None
                         else Demand.from_triples(
                             (*commodity((s, c)), perm[d])
                             for (s, c, d) in self.demand_used.triples())))

    def rescaled(self, topology: Topology) -> "SynthesisResult":
        """The same result on ``topology``: the fabric it was solved on,
        in another capacity unit (hyper-edge-transformed for a hyper-edge
        result). Only τ is in the unit, so the schedule keeps its sends or
        amounts, while plan, τ and ``finish_time`` are set as a direct
        solve there sets them. The caller proves the plan's κ and delays
        unchanged (:func:`repro.service.fingerprint.rescale_of`);
        ``outcome``/``hyper`` drop as in :meth:`relabeled`, and ``explain``
        stays the solve's, in its units."""
        plan = build_epoch_plan(topology, self.config, self.plan.num_epochs)
        schedule = replace(self.schedule, tau=plan.tau)
        if "arrays" in vars(self.schedule):  # a FlowSchedule's τ-free view
            vars(schedule)["arrays"] = self.schedule.arrays
        return replace(self, schedule=schedule, plan=plan,
                       finish_time=schedule.finish_time(topology),
                       outcome=None, hyper=None, topology_used=topology)

    def algorithmic_bandwidth(self, output_buffer_bytes: float) -> float:
        """TACCL's metric: output buffer size / collective finish time."""
        if output_buffer_bytes <= 0:
            raise ModelError(
                f"output_buffer_bytes must be positive, got "
                f"{output_buffer_bytes!r}")
        if self.finish_time <= 0:
            raise ModelError("finish time is not positive")
        return output_buffer_bytes / self.finish_time

    def to_dict(self) -> dict:
        """JSON-ready representation (round-trips via :meth:`from_dict`).

        Serialises everything downstream consumers need — the schedule, the
        epoch plan, and the (possibly hyper-transformed) topology and demand
        the schedule is expressed over. The raw solver ``outcome`` and the
        ``hyper`` transform record are dropped: they hold solver internals
        (variable tables, incumbent traces) that no replay path needs.
        """
        return {
            "method": self.method.value,
            "finish_time": self.finish_time,
            "solve_time": self.solve_time,
            "schedule": self.schedule.to_dict(),
            "plan": self.plan.to_dict(),
            "was_hyper": self.hyper is not None,
            "topology_used": (None if self.topology_used is None
                              else self.topology_used.to_dict()),
            "demand_used": (None if self.demand_used is None
                            else self.demand_used.to_dict()),
            "config": (None if self.config is None
                       else replace(self.config,
                                    capacity_fn=None).to_dict()),
            "explain": self.explain,
        }

    @staticmethod
    def from_dict(data: dict) -> "SynthesisResult":
        """Parse the :meth:`to_dict` representation (``outcome`` is None)."""
        try:
            sched_doc = data["schedule"]
            if sched_doc.get("kind") == "flow":
                schedule: Schedule | FlowSchedule = \
                    FlowSchedule.from_dict(sched_doc)
            else:
                schedule = Schedule.from_dict(sched_doc)
            return SynthesisResult(
                method=Method(data["method"]),
                schedule=schedule,
                finish_time=float(data["finish_time"]),
                solve_time=float(data["solve_time"]),
                plan=EpochPlan.from_dict(data["plan"]),
                outcome=None,
                topology_used=(
                    None if data.get("topology_used") is None
                    else Topology.from_dict(data["topology_used"])),
                demand_used=(
                    None if data.get("demand_used") is None
                    else Demand.from_dict(data["demand_used"])),
                config=(
                    None if data.get("config") is None
                    else TecclConfig.from_dict(data["config"])),
                explain=data.get("explain"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(
                f"malformed synthesis result document: {exc}") from exc


def synthesize(topology: Topology, demand: Demand, config: TecclConfig, *,
               method: Method = Method.AUTO,
               astar_config: AStarConfig | None = None,
               minimize_epochs: bool = False) -> SynthesisResult:
    """Synthesize routes and a schedule for one collective demand.

    Args:
        method: force a formulation, or AUTO for the paper's selection rule
            (LP when copy cannot help, MILP otherwise).
        minimize_epochs: for the LP, binary-search the smallest feasible
            horizon instead of solving one fixed horizon (§6's procedure for
            the numerically tricky large ALLTOALLs).
    """
    with _obs_span("synthesize", method=method.value,
                   gpus=len(topology.gpus),
                   minimize_epochs=minimize_epochs) as sp:
        with _flight.collect_phases() as phases:
            result = _synthesize(topology, demand, config, method=method,
                                 astar_config=astar_config,
                                 minimize_epochs=minimize_epochs)
        sp.set_attr(resolved_method=result.method.value,
                    finish_time=result.finish_time)
        result.explain = _build_explain(result, phases)
        return result


def _build_explain(result: SynthesisResult, phases: dict) -> dict:
    """The solve-side provenance dict riding a fresh SynthesisResult.

    Everything here is lifted from data the solve already produced (the
    outcome's stats, the recorded-span phase accumulator) — JSON-safe by
    construction so it survives cache serialisation and the pool's
    process boundary.
    """
    outcome = result.outcome
    # the LP/MILP solve result; A* rounds carry none
    inner = getattr(outcome, "result", None)
    stats = solve_stats_subset(getattr(inner, "stats", None))
    return {
        "method": result.method.value,
        "solver_status": None if inner is None else inner.status.value,
        "mip_gap": None if inner is None else inner.mip_gap,
        "finish_time": result.finish_time,
        "solve_time": result.solve_time,
        "horizon_epochs": result.plan.num_epochs,
        "finish_epoch": result.schedule.finish_epoch,
        "hyper_transform": result.hyper is not None,
        "stats": stats,
        "phases": {name: round(dur, 6) for name, dur in phases.items()},
    }


def _synthesize(topology: Topology, demand: Demand, config: TecclConfig, *,
                method: Method, astar_config: AStarConfig | None,
                minimize_epochs: bool) -> SynthesisResult:
    work_topology = topology
    work_demand = demand
    hyper: HyperEdgeTopology | None = None
    hyper_groups = None
    if (config.switch_model is SwitchModel.HYPER_EDGE
            and topology.switches):
        if config.priorities is not None:
            raise ModelError(
                "per-triple priorities are keyed by original node ids and "
                "are not supported together with the hyper-edge transform")
        with _obs_span("synthesize.hyper_transform"):
            hyper = to_hyper_edges(topology)
            work_topology = hyper.topology
            hyper_groups = hyper.groups
            old_to_new = {old: new for new, old in hyper.node_map.items()}
            work_demand = Demand.from_triples(
                (old_to_new[s], c, old_to_new[d])
                for s, c, d in demand.triples())

    if method is Method.AUTO:
        method = Method.LP if not demand.benefits_from_copy() else Method.MILP

    if method is Method.LP:
        if work_demand.benefits_from_copy():
            # Sound but deliberately weaker: LP == the no-copy ablation.
            outcome = solve_lp(work_topology, work_demand, config,
                               aggregate=False)
        elif minimize_epochs:
            outcome = minimize_epochs_lp(work_topology, work_demand, config)
        else:
            outcome = solve_lp(work_topology, work_demand, config)
    elif method is Method.MILP:
        outcome = solve_milp(work_topology, work_demand, config,
                             hyper_groups=hyper_groups)
    elif method is Method.ASTAR:
        if hyper_groups:
            raise ModelError(
                "the A* decomposition does not support hyper-edge switches; "
                "use the COPY or NO_COPY switch model")
        outcome = _astar.solve_astar(work_topology, work_demand, config,
                                     astar_config)
    else:
        raise ModelError(f"unknown method {method!r}")
    return SynthesisResult(
        method=method, schedule=outcome.schedule,
        finish_time=outcome.finish_time, solve_time=outcome.solve_time,
        plan=outcome.plan, outcome=outcome, hyper=hyper,
        topology_used=work_topology, demand_used=work_demand, config=config)


def synthesize_multi_tenant(topology: Topology, tenants: list[TenantDemand],
                            config: TecclConfig, *,
                            method: Method = Method.AUTO,
                            astar_config: AStarConfig | None = None,
                            ) -> SynthesisResult:
    """Multi-tenant synthesis (§5): merge demands, weight completion times.

    The merged demand shares the capacity constraints (no tenant can exceed
    the fabric) while per-tenant priorities weight the objective's read
    rewards, biasing the schedule toward finishing high-priority tenants
    first.
    """
    merged, weights = merge_tenants(tenants)
    config = replace(config, priorities=weights)
    return synthesize(topology, merged, config, method=method,
                      astar_config=astar_config)
