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
import time
from dataclasses import dataclass, replace

from repro.collectives.demand import Demand
from repro.core.config import TecclConfig
from repro.core.epochs import EpochPlan, build_epoch_plan, path_based_epoch_bound
from repro.core.lp import (LpBuilder, LpOutcome, _solve_maybe_reduced,
                           _vet_reduced_outcome, extract_lp_outcome)
from repro.core.schedule import FlowSchedule
from repro.core.subsolve import run_subsolves
from repro.errors import InfeasibleError, ModelError
from repro.obs.trace import activate as _obs_activate
from repro.obs.trace import current_context as _obs_context
from repro.obs.trace import event as _obs_event
from repro.obs.trace import span as _obs_span
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
                 parallel: bool = False, jobs: int | None = None,
                 pool=None) -> PopOutcome:
    """Solve the LP via POP partitioning and merge the sub-schedules.

    All subproblems share one epoch plan (same τ, same horizon) so their
    flow variables line up for the merge. An automatically estimated
    horizon is doubled and retried when any subproblem is infeasible —
    capacity splitting can stretch a partition past the joint optimum —
    and every retry rebuilds its partitions at the larger horizon
    (:func:`_solve_partition`).

    The partitions are independent by construction, so ``parallel=True``
    fans them out concurrently on **threads**
    (:func:`~repro.core.subsolve.run_subsolves`, width ``jobs``), and a
    :class:`~repro.service.pool.SolvePool` passed as ``pool`` fans them out
    across **processes** (each partition crosses the boundary as plain
    dicts and is solved by :func:`solve_pop_partition`). A pool falls back
    to in-process dispatch when ``config.capacity_fn`` is set (a Python
    callable cannot cross the boundary).

    Every merged schedule is replayed through the conformance oracle
    before it is returned: a violation on a parallel or pooled run is
    re-solved sequentially, and a violation on the sequential run raises
    :class:`~repro.errors.ScheduleError`.
    """
    demand.validate(topology)
    topology.validate()
    if demand.benefits_from_copy():
        raise ModelError(
            "POP partitioning applies to the LP form only; multicast "
            "demands need the MILP (use solve_milp or A*)")
    partitions = partition_demand(demand, num_partitions, seed=seed)

    auto = config.num_epochs is None
    if auto:
        probe = build_epoch_plan(topology, config, num_epochs=1)
        # Partitioned capacity stretches completion by ~1/share; be generous.
        num_epochs = pop_auto_horizon(
            path_based_epoch_bound(topology, demand, probe), num_partitions)
    else:
        num_epochs = config.num_epochs

    attempts = 3 if auto else 1
    last_error: InfeasibleError | None = None
    for attempt in range(attempts):
        try:
            outcome = _solve_at_horizon(topology, config, partitions,
                                        num_epochs, parallel=parallel,
                                        jobs=jobs, pool=pool)
        except InfeasibleError as err:
            last_error = err
            num_epochs *= 2
            continue
        report = _pop_conformance(outcome, topology, demand, config)
        if not report.ok and (parallel or pool is not None):
            # A violation means the fan-out (not the solver) mis-built or
            # mis-merged a partition; serve the sequential run instead.
            outcome = _solve_at_horizon(topology, config, partitions,
                                        num_epochs)
            report = _pop_conformance(outcome, topology, demand, config)
        report.raise_on_violation()
        outcome.attempts = attempt + 1
        # the fan-out record the explain/flight layer surfaces: how many
        # sub-solves this schedule came from and how hard the horizon fought
        _obs_event("pop.fanout", partitions=len(partitions),
                   attempts=outcome.attempts, parallel=parallel,
                   pooled=pool is not None, epochs=num_epochs)
        if outcome.sub_outcomes:
            stats = outcome.sub_outcomes[0].result.stats
            stats["pop_partitions"] = len(partitions)
            stats["pop_attempts"] = outcome.attempts
        return outcome
    raise last_error


def _pop_conformance(outcome: PopOutcome, topology: Topology, demand: Demand,
                     config: TecclConfig):
    """PR 3 gate: replay the merged schedule before handing it out."""
    from repro.simulate import check_flow

    return check_flow(outcome.schedule, topology, demand, outcome.plan,
                      config=config)


def _solve_partition(topology: Topology, config: TecclConfig,
                     part: Partition, plan: EpochPlan) -> LpOutcome:
    """Solve one partition on its capacity share of the fabric.

    The one place a POP sub-LP is built and solved — the in-process
    thunks and the :func:`solve_pop_partition` pool worker both land
    here. The quotient path applies per partition: the uniform capacity
    scaling keeps the fabric's automorphisms, and the compiled-matrix
    verification rejects anything a partition's demand slice breaks.
    """
    sub_config = replace(
        config, num_epochs=plan.num_epochs,
        capacity_fn=_scaled_capacity_fn(topology, config, part.share))
    with _obs_span("pop.partition", index=part.index,
                   share=round(part.share, 6)):
        builder = LpBuilder(topology, part.demand, sub_config, plan)
        start = time.perf_counter()
        problem = builder.build()
        build_time = time.perf_counter() - start
        result, reduced = _solve_maybe_reduced(problem, topology,
                                               part.demand, sub_config)
        result.stats["build_time"] = build_time
        if not result.status.has_solution:
            raise InfeasibleError(
                f"POP partition {part.index} infeasible at "
                f"K={plan.num_epochs}", status="horizon")
        outcome = extract_lp_outcome(problem, result)
        if reduced:
            outcome = _vet_reduced_outcome(outcome, problem, topology,
                                           part.demand, sub_config)
        return outcome


def _solve_at_horizon(topology: Topology, config: TecclConfig,
                      partitions: list[Partition], num_epochs: int,
                      parallel: bool = False, jobs: int | None = None,
                      pool=None) -> PopOutcome:
    plan = build_epoch_plan(topology, config, num_epochs=num_epochs)
    pooled = pool is not None and config.capacity_fn is None
    with _obs_span("pop.solve", partitions=len(partitions),
                   epochs=num_epochs, parallel=bool(parallel),
                   pooled=pooled):
        if pooled:
            sub_outcomes = _solve_partitions_pooled(
                topology, config, partitions, num_epochs, pool)
        else:
            # Sequential dispatch goes through the same executor at
            # width 1: every partition runs even when a sibling is
            # infeasible and the lowest-index failure is raised, so the
            # retry loop above sees the same error either way.
            tasks = [lambda part=part: _solve_partition(topology, config,
                                                        part, plan)
                     for part in partitions]
            sub_outcomes = run_subsolves(
                tasks, jobs=jobs if parallel else 1, label="pop")
        merged = merge_flow_schedules([o.schedule for o in sub_outcomes])
        return PopOutcome(schedule=merged, partitions=partitions,
                          sub_outcomes=sub_outcomes, plan=plan,
                          finish_time=merged.finish_time(topology))


def solve_pop_partition(request_dict: dict) -> dict:
    """Solve one serialised POP partition; module-level so workers pickle it.

    The :class:`~repro.service.pool.SolvePool` worker for the process
    fan-out: the fabric, the partition's demand slice, and the config cross
    the boundary as plain dicts, :func:`_solve_partition` does the work,
    and the solved :class:`~repro.core.lp.LpOutcome` travels back as its
    dict form (primal vectors stay behind — the schedules are already
    extracted). Infeasibility is reported as a payload, not an exception,
    so it survives any executor's pickling of errors:
    ``{"infeasible": True, "message": ...}``.
    """
    topology = Topology.from_dict(request_dict["topology"])
    config = TecclConfig.from_dict(request_dict["config"])
    part = Partition(index=int(request_dict["index"]),
                     demand=Demand.from_dict(request_dict["demand"]),
                     share=float(request_dict["share"]))
    with _obs_activate(request_dict.get("_obs")):
        plan = build_epoch_plan(topology, config,
                                num_epochs=int(request_dict["num_epochs"]))
        try:
            outcome = _solve_partition(topology, config, part, plan)
        except InfeasibleError as err:
            return {"infeasible": True, "message": str(err)}
    return {"infeasible": False, "outcome": outcome.to_dict()}


def _solve_partitions_pooled(topology: Topology, config: TecclConfig,
                             partitions: list[Partition], num_epochs: int,
                             pool) -> list[LpOutcome]:
    """Fan partition solves out across a SolvePool's processes.

    Submissions are keyed by a ``pop-partition`` canonical fingerprint —
    distinct from the planner's request keys, so they never collide in a
    shared pool, while identical concurrent partition solves still
    coalesce onto one worker.
    """
    from repro.service.fingerprint import (FINGERPRINT_VERSION,
                                           canonical_config,
                                           canonical_demand,
                                           canonical_topology,
                                           fingerprint_canonical)
    from repro.service.pool import SolvePool

    sub_config = replace(config, num_epochs=num_epochs)
    topo_doc = topology.to_dict()
    config_doc = sub_config.to_dict()
    canonical_topo = canonical_topology(topology)
    canonical_cfg = canonical_config(sub_config)
    context = _obs_context()
    futures = []
    for part in partitions:
        request = {"kind": "pop-partition", "index": part.index,
                   "share": part.share, "num_epochs": num_epochs,
                   "topology": topo_doc, "demand": part.demand.to_dict(),
                   "config": config_doc}
        if context is not None:
            request["_obs"] = context
        key = "pop:" + fingerprint_canonical({
            "kind": "pop-partition", "version": FINGERPRINT_VERSION,
            "topology": canonical_topo,
            "demand": canonical_demand(part.demand),
            "config": canonical_cfg, "share": float(part.share)})
        future, _ = pool.submit(key, request, solve_fn=solve_pop_partition)
        futures.append(future)
    sub_outcomes: list[LpOutcome] = []
    for part, future in zip(partitions, futures):
        payload = SolvePool.wait(future)
        if payload.get("infeasible"):
            raise InfeasibleError(
                payload.get("message")
                or f"POP partition {part.index} infeasible at "
                   f"K={num_epochs}", status="horizon")
        sub_outcomes.append(LpOutcome.from_dict(payload["outcome"]))
    return sub_outcomes


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
