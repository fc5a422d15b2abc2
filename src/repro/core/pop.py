"""POP-style partitioned LP solving (client-side scaling, after [21]).

POP ("Partitioned Optimization Problems", Narayanan et al., SOSP'21 — the
paper's citation [21]) scales granular allocation problems by splitting the
*clients* into k groups, giving each group 1/k of every resource, solving
the k subproblems independently, and summing the allocations. Granular here
means no single commodity dominates — exactly the shape of an ALLTOALL,
where every GPU sources the same volume.

This module applies POP to the TE-CCL LP (§4.1): commodities (sources) are
partitioned, each subproblem sees the fabric with capacities scaled by its
demand share, and the merged flow schedule is feasible by construction
(shares sum to 1, so summed flows respect every original capacity). The
price is optimality: a subproblem cannot borrow the capacity another
partition left idle. The ablation bench quantifies that gap against the
monolithic LP.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from repro.collectives.demand import Demand
from repro.core.config import TecclConfig
from repro.core.epochs import (EpochPlan, build_epoch_plan,
                               first_feasible_rung, horizon_ladder)
from repro.core.lp import LpOutcome, _solve_lp_at
from repro.core.schedule import FlowSchedule
from repro.core.subsolve import run_subsolves
from repro.errors import ModelError
from repro.obs.trace import event as _obs_event
from repro.obs.trace import span as _obs_span
from repro.simulate import conformance
from repro.topology.topology import Topology


@dataclass(frozen=True)
class Partition:
    """One POP client group: a slice of the demand plus its capacity share."""

    index: int
    demand: Demand
    share: float

    def __post_init__(self) -> None:
        if not 0 < self.share <= 1:
            raise ModelError(f"partition share {self.share} not in (0, 1]")


@dataclass
class PopOutcome:
    """The merged result of the k independent sub-LPs.

    ``serial_solve_time`` sums the subproblem times (one machine);
    ``parallel_solve_time`` takes their maximum (POP's headline number —
    the subproblems are embarrassingly parallel).
    """

    schedule: FlowSchedule
    partitions: list[Partition]
    sub_outcomes: list[LpOutcome]
    plan: EpochPlan
    finish_time: float
    #: horizon attempts it took (1 = the auto bound was feasible first try)
    attempts: int = 1

    @property
    def serial_solve_time(self) -> float:
        return sum(o.solve_time for o in self.sub_outcomes)

    @property
    def parallel_solve_time(self) -> float:
        return max(o.solve_time for o in self.sub_outcomes)

    @property
    def solve_time(self) -> float:
        return self.parallel_solve_time


def partition_demand(demand: Demand, num_partitions: int, *,
                     seed: int = 0) -> list[Partition]:
    """Split the demand's sources into balanced client groups.

    Sources are shuffled (deterministically per seed, POP's randomised
    split) and greedily assigned to the lightest group by triple count.
    Shares are proportional to each group's triple load, so heterogeneous
    splits still sum to exactly 1.
    """
    if num_partitions < 1:
        raise ModelError("num_partitions must be at least 1")
    sources = list(demand.sources)
    if num_partitions > len(sources):
        raise ModelError(
            f"cannot split {len(sources)} sources into {num_partitions} "
            "partitions")
    rng = random.Random(seed)
    loads = {s: sum(len(demand.destinations(s, c))
                    for c in demand.chunks_of(s)) for s in sources}
    rng.shuffle(sources)
    sources.sort(key=lambda s: -loads[s])  # stable: heavy first
    groups: list[list[int]] = [[] for _ in range(num_partitions)]
    group_load = [0] * num_partitions
    for s in sources:
        lightest = min(range(num_partitions), key=lambda g: group_load[g])
        groups[lightest].append(s)
        group_load[lightest] += loads[s]
    total = sum(group_load)
    partitions = []
    for idx, members in enumerate(groups):
        member_set = set(members)
        sub = Demand.from_triples(
            t for t in demand.triples() if t[0] in member_set)
        partitions.append(Partition(index=idx, demand=sub,
                                    share=group_load[idx] / total))
    return partitions


def _scaled_capacity_fn(topology: Topology, config: TecclConfig,
                        share: float):
    """The subproblem's fabric: every capacity scaled by the demand share."""
    base = config.capacity_fn

    def capacity(i: int, j: int, k: int) -> float:
        full = base(i, j, k) if base is not None else \
            topology.link(i, j).capacity
        return full * share

    return capacity


def pop_auto_horizon(num_epochs: int, num_partitions: int) -> int:
    """Auto-horizon for capacity-split subproblems: real slack, always.

    Partitioned capacity stretches a subproblem's completion by roughly the
    partition count, so the joint path bound is scaled by ``ceil(K·P/2)``
    with a floor of one genuine slack epoch. The previous formula,
    ``max(K, int(K · P · 0.5))``, was a no-op at the default ``P = 2``
    (``int(K · 1.0) == K``): default POP runs got *zero* slack and burned an
    infeasible-retry solve whenever the joint bound was tight.
    """
    if num_partitions <= 1:
        return num_epochs  # no capacity splitting, no stretch to cover
    stretched = math.ceil(num_epochs * num_partitions * 0.5)
    return max(num_epochs + 1, stretched)


def solve_lp_pop(topology: Topology, demand: Demand, config: TecclConfig, *,
                 num_partitions: int = 2, seed: int = 0,
                 jobs: int | None = 1) -> PopOutcome:
    """Solve the LP via POP partitioning and merge the sub-schedules.

    All subproblems share one epoch plan (same τ, same horizon) so their
    flow variables line up for the merge. The horizon climbs
    :func:`~repro.core.epochs.horizon_ladder` from the
    :func:`pop_auto_horizon` stretch of the joint bound: when any
    subproblem is infeasible — capacity splitting can stretch a partition
    past the joint optimum — every partition is rebuilt at the next rung.

    The partitions are independent by construction, so ``jobs`` fans
    them out concurrently on threads
    (:func:`~repro.core.subsolve.run_subsolves`: ``1`` is sequential,
    ``None`` the CPU count).

    Every merged schedule passes the trust gate
    (:func:`conformance.vetted`) before it is returned. A violation on a
    fanned-out run means the fan-out, not the solver, mis-built or
    mis-merged a partition: it is re-solved sequentially, and a violation
    on the sequential run raises :class:`~repro.errors.ScheduleError`.
    """
    demand.validate(topology)
    topology.validate()
    if demand.benefits_from_copy():
        raise ModelError(
            "POP partitioning applies to the LP form only; multicast "
            "demands need the MILP (use solve_milp or A*)")
    partitions = partition_demand(demand, num_partitions, seed=seed)

    def solve_at(num_epochs: int) -> PopOutcome:
        return _solve_at_horizon(topology, config, partitions, num_epochs,
                                 jobs=jobs)

    # Partitioned capacity stretches completion by ~1/share; be generous.
    attempt, num_epochs, outcome = first_feasible_rung(
        horizon_ladder(
            topology, demand, config, copy=False,
            stretch=lambda bound: pop_auto_horizon(bound, num_partitions)),
        solve_at)
    replay = conformance.replay_of("check_flow", topology, demand, config)
    outcome = conformance.vetted(
        "pop", outcome, replay, None if jobs == 1 else (
            lambda: conformance.vetted("pop", _solve_at_horizon(
                topology, config, partitions, num_epochs), replay)))
    outcome.attempts = attempt
    # the fan-out record the explain/flight layer surfaces: how many
    # sub-solves this schedule came from and how hard the horizon fought
    _obs_event("pop.fanout", partitions=len(partitions),
               attempts=attempt, jobs=jobs, epochs=num_epochs)
    return outcome


def _solve_partition(topology: Topology, config: TecclConfig,
                     part: Partition, plan: EpochPlan) -> LpOutcome:
    """Solve one partition on its capacity share of the fabric.

    The quotient path applies per partition: the uniform capacity scaling
    keeps the fabric's automorphisms, and the template proof refuses any
    generator a partition's demand slice or capacities break.
    """
    sub_config = replace(
        config, num_epochs=plan.num_epochs,
        capacity_fn=_scaled_capacity_fn(topology, config, part.share))
    with _obs_span("pop.partition", index=part.index,
                   share=round(part.share, 6)):
        return _solve_lp_at(topology, part.demand, sub_config, plan)


def _solve_at_horizon(topology: Topology, config: TecclConfig,
                      partitions: list[Partition], num_epochs: int,
                      jobs: int | None = 1) -> PopOutcome:
    plan = build_epoch_plan(topology, config, num_epochs=num_epochs)
    with _obs_span("pop.solve", partitions=len(partitions),
                   epochs=num_epochs, jobs=jobs):
        # Sequential dispatch goes through the same executor at width 1:
        # every partition runs even when a sibling is infeasible and the
        # lowest-index failure is raised, so the ladder above sees the
        # same error either way.
        tasks = [lambda part=part: _solve_partition(topology, config,
                                                    part, plan)
                 for part in partitions]
        sub_outcomes = run_subsolves(tasks, jobs=jobs, label="pop")
        merged = merge_flow_schedules([o.schedule for o in sub_outcomes])
        return PopOutcome(schedule=merged, partitions=partitions,
                          sub_outcomes=sub_outcomes, plan=plan,
                          finish_time=merged.finish_time(topology))


def merge_flow_schedules(schedules: list[FlowSchedule]) -> FlowSchedule:
    """Sum fractional schedules (commodity keys must not collide)."""
    if not schedules:
        raise ModelError("nothing to merge")
    first = schedules[0]
    flows: dict[tuple, float] = {}
    reads: dict[tuple, float] = {}
    for sched in schedules:
        if abs(sched.tau - first.tau) > 1e-15:
            raise ModelError("cannot merge schedules with different τ")
        for key, value in sched.flows.items():
            flows[key] = flows.get(key, 0.0) + value
        for key, value in sched.reads.items():
            reads[key] = reads.get(key, 0.0) + value
    return FlowSchedule(flows=flows, reads=reads, tau=first.tau,
                        chunk_bytes=first.chunk_bytes,
                        num_epochs=max(s.num_epochs for s in schedules))
