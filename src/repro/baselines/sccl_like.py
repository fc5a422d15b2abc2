"""An SCCL-style synchronous-round synthesizer (§6.1's other baseline).

SCCL [5] synthesizes collectives over *global synchronous steps*: every
transfer in step t completes before step t+1 begins, so a step costs the
worst α + β·S of any link used and nothing pipelines across heterogeneous
links. Its ``least-steps`` mode searches for the fewest steps that can
satisfy the demand. The paper's Table 3/7 comparisons rest on two properties
we reproduce exactly:

* the barrier makes multi-chunk transfers pay α once per step, so TE-CCL's
  pipelining wins as soon as there is more than one chunk;
* synthesis cost explodes with the chunk count (SCCL uses an SMT solver; we
  search feasibility MILPs per step count, which exhibits the same growth
  while staying runnable offline).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.collectives.demand import Demand
from repro.core.config import TecclConfig
from repro.core.epochs import (UNREACHABLE, EpochPlan,
                               earliest_arrival_epochs)
from repro.core.milp import MilpBuilder, extract_outcome
from repro.core.schedule import Schedule
from repro.errors import InfeasibleError
from repro.solver import SolverOptions, SolveStatus
from repro.topology.topology import Topology


@dataclass
class ScclOutcome:
    """An SCCL-like synthesis result."""

    schedule: Schedule
    steps: int
    solve_time: float
    finish_time: float

    @property
    def num_sends(self) -> int:
        return self.schedule.num_sends


def _barrier_plan(topology: Topology, chunk_bytes: float,
                  steps: int, rounds_per_step: int = 1) -> EpochPlan:
    """The synchronous abstraction: no pipelining across steps.

    ``rounds_per_step`` is SCCL's rounds dimension: a link may carry that
    many chunks within one step (the step then lasts correspondingly
    longer — see :func:`barrier_finish_time`). τ is symbolic (1.0).
    """
    links = list(topology.links)
    return EpochPlan(
        tau=1.0, num_epochs=steps, chunk_bytes=chunk_bytes,
        cap_chunks={key: float(rounds_per_step) for key in links},
        occupancy={key: 1 for key in links},
        delay={key: 0 for key in links})


def barrier_finish_time(schedule: Schedule, topology: Topology,
                        chunk_bytes: float) -> float:
    """Σ over steps of the slowest link's serialized work in that step.

    A link carrying r chunks in a step pays α + r·β·S; the barrier makes
    the step as long as its worst link.
    """
    total = 0.0
    for _, sends in sorted(schedule.sends_by_epoch().items()):
        per_link: dict[tuple[int, int], int] = {}
        for s in sends:
            per_link[s.link] = per_link.get(s.link, 0) + 1
        total += max(
            topology.link(i, j).alpha
            + count * chunk_bytes / topology.link(i, j).capacity
            for (i, j), count in per_link.items())
    return total


def sccl_instance(topology: Topology, demand: Demand, config: TecclConfig,
                  steps: int, *, rounds_per_step: int = 1,
                  solver: SolverOptions | None = None,
                  ) -> ScclOutcome:
    """SCCL's ``instance`` mode: is the demand satisfiable in these steps?

    ``rounds_per_step`` reproduces SCCL's rounds dimension (extra bandwidth
    within a step). Raises :class:`InfeasibleError` when unsatisfiable —
    exactly how SCCL's instance encoding fails.
    """
    start = time.perf_counter()
    plan = _barrier_plan(topology, config.chunk_bytes, steps,
                         rounds_per_step=rounds_per_step)
    builder = MilpBuilder(topology, demand, config, plan)
    problem = builder.build()
    options = solver or SolverOptions(mip_gap=0.5)
    result = problem.model.solve(options)
    if result.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(
            f"not satisfiable in {steps} steps", status=result.status.value)
    outcome = extract_outcome(problem, result.require_solution())
    schedule = outcome.schedule
    return ScclOutcome(
        schedule=schedule, steps=steps,
        solve_time=time.perf_counter() - start,
        finish_time=barrier_finish_time(schedule, topology,
                                        config.chunk_bytes))


def sccl_least_steps(topology: Topology, demand: Demand,
                     config: TecclConfig, *, max_steps: int = 64,
                     solver: SolverOptions | None = None) -> ScclOutcome:
    """SCCL's ``least-steps``: smallest synchronous step count that works.

    Searches upward from the hop-distance lower bound, accumulating solver
    time across feasibility checks (the cost the paper measures). Only a
    step count proved unsatisfiable moves the search on; any other failed
    solve (a time limit or backend error without a point) propagates.
    """
    demand.validate(topology)
    topology.validate()
    plan_probe = _barrier_plan(topology, config.chunk_bytes, 1)
    dist = earliest_arrival_epochs(topology, plan_probe)
    lower = 1
    for s, c in demand.commodities():
        for d in demand.destinations(s, c):
            hops = int(dist[s, d])
            if hops >= UNREACHABLE:
                raise InfeasibleError(f"{d} unreachable from {s}")
            lower = max(lower, hops)
    total_time = 0.0
    for steps in range(lower, max_steps + 1):
        attempt_start = time.perf_counter()
        try:
            outcome = sccl_instance(topology, demand, config, steps,
                                    solver=solver)
        except InfeasibleError as err:
            if err.status not in ("infeasible", "horizon"):
                raise  # a time limit or backend error is not unsatisfiable
            total_time += time.perf_counter() - attempt_start
            continue
        return ScclOutcome(schedule=outcome.schedule, steps=outcome.steps,
                           solve_time=total_time + outcome.solve_time,
                           finish_time=outcome.finish_time)
    raise InfeasibleError(
        f"no schedule within {max_steps} synchronous steps",
        status="steps")
