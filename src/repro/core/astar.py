"""The A*-inspired round decomposition (§4.2, Appendix D).

The general MILP does not scale past a few tens of chassis, so TE-CCL
partitions time into *rounds* and solves a small MILP per round. Two changes
versus the one-shot MILP:

* the final-epoch completion constraint is dropped (a round may end with
  demands outstanding), and the objective gains a *potential* term that
  rewards ending the round with chunks closer to their destinations —
  closeness comes from all-pairs distances (the paper uses Floyd–Warshall
  over the α costs; we use the same distances in epoch units);
* chunks sent near the end of a round arrive in the *next* round (the
  paper's ``Q`` variables); we carry them over as buffer injections.

The decomposition trades optimality for speed: fewer epochs per round solve
faster but lose more lookahead (§6.3 measures a 6–20% gap at 2.5–4× speedup).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.collectives.demand import Demand, Triple
from repro.core.config import AStarConfig, TecclConfig
from repro.core.epochs import (UNREACHABLE, EpochPlan, build_epoch_plan,
                               earliest_arrival_epochs)
from repro.core.milp import Commodity, MilpBuilder, MilpProblem
from repro.core.postprocess import prune_sends
from repro.core.schedule import Schedule, Send
from repro.errors import InfeasibleError, ModelError
from repro.solver import SolveResult
from repro.topology.topology import Topology


@dataclass
class RoundStats:
    """Diagnostics for one A* round."""

    round_index: int
    solve_time: float
    objective: float
    sends: int
    satisfied: int
    outstanding: int


@dataclass
class AStarOutcome:
    """The stitched multi-round solution."""

    schedule: Schedule
    raw_schedule: Schedule
    plan: EpochPlan
    rounds: list[RoundStats] = field(default_factory=list)
    finish_time: float = 0.0

    @property
    def solve_time(self) -> float:
        return sum(r.solve_time for r in self.rounds)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


def _potential_weights(topology: Topology, plan: EpochPlan,
                       ) -> dict[int, dict[int, float]]:
    """Distance reward weights, exponentially peaked: w[n][d] = 2^(−dist).

    Appendix D weighs copies by Floyd–Warshall distance. The weights must be
    *peaked* enough that one close copy is worth more than any number of far
    copies — with flat ``1/(1+d)`` weights, ten copies two hops out already
    saturate the per-triple potential and the round loses its gradient
    (chunks stop advancing). ``2^-d`` keeps the closest copy dominant:
    ``Σ_{far} 2^-d`` of all farther copies stays below one copy a hop closer
    on any of the paper's fabrics.
    """
    dist = np.minimum(earliest_arrival_epochs(topology, plan), 60).tolist()
    return {n: {d: 2.0 ** (-float(dist[n][d])) for d in topology.nodes}
            for n in topology.nodes}


def solve_astar(topology: Topology, demand: Demand, config: TecclConfig,
                astar: AStarConfig | None = None) -> AStarOutcome:
    """Run rounds until every demand is satisfied; returns the stitched plan.

    Raises :class:`InfeasibleError` if a round makes no progress or the round
    budget runs out — both indicate the per-round horizon is too short for
    the topology's delays.
    """
    astar = astar or AStarConfig()
    demand.validate(topology)
    topology.validate()
    if not config.store_and_forward:
        raise ModelError(
            "the A* round decomposition carries chunks across round "
            "boundaries in GPU buffers and cannot honour the "
            "store_and_forward=False ablation; use the single-shot MILP")

    probe = build_epoch_plan(topology, config, num_epochs=1)
    max_offset = max(probe.arrival_offset(i, j) for (i, j) in topology.links)
    if astar.epochs_per_round is not None:
        epochs_per_round = astar.epochs_per_round
    else:
        # Default: long enough that the farthest demanded pair can complete
        # inside one round. Shorter rounds are legal (pass epochs_per_round)
        # but rely purely on the distance potential for progress.
        dist = earliest_arrival_epochs(topology, probe)
        longest = max(int(dist[s, d]) if dist[s, d] < UNREACHABLE else 0
                      for s, c in demand.commodities()
                      for d in demand.destinations(s, c))
        epochs_per_round = max(4, max_offset + 2, longest + 2)
    if epochs_per_round <= max_offset:
        raise ModelError(
            f"epochs_per_round={epochs_per_round} must exceed the largest "
            f"link delay ({max_offset} epochs) so chunks arrive at most one "
            "round late")
    round_plan = build_epoch_plan(topology, config,
                                  num_epochs=epochs_per_round)
    weights = _potential_weights(topology, round_plan)

    holders: dict[Commodity, set[int]] = {
        q: {q[0]} for q in demand.commodities()}
    injections: dict[tuple[int, int, int, int], int] = {}
    carry: dict[tuple[int, int, int], int] = {}
    remaining = demand
    all_sends: list[Send] = []
    rounds: list[RoundStats] = []

    for round_index in range(astar.max_rounds):
        if remaining.is_empty():
            break
        problem, result = _solve_round(
            topology, remaining, config, round_plan, holders, injections,
            weights, astar.gamma, carry)
        round_sends = _extract_sends(problem, result)
        offset = round_index * epochs_per_round
        all_sends.extend(
            Send(epoch=s.epoch + offset, source=s.source, chunk=s.chunk,
                 src=s.src, dst=s.dst) for s in round_sends)

        carry = _capacity_carry(round_plan, round_sends)
        holders, injections, satisfied = _advance_state(
            topology, round_plan, holders, injections, round_sends, remaining)
        rounds.append(RoundStats(
            round_index=round_index,
            solve_time=result.solve_time,
            objective=result.objective or 0.0,
            sends=len(round_sends),
            satisfied=len(satisfied),
            outstanding=remaining.num_triples - len(satisfied)))
        new_remaining = remaining.without(satisfied)
        if (new_remaining.num_triples == remaining.num_triples
                and not round_sends and not injections):
            raise InfeasibleError(
                f"A* made no progress in round {round_index}; "
                "increase epochs_per_round", status="stalled")
        remaining = new_remaining
    else:
        if not remaining.is_empty():
            raise InfeasibleError(
                f"A* did not satisfy all demands within "
                f"{astar.max_rounds} rounds", status="rounds")

    total_epochs = max(1, len(rounds)) * epochs_per_round
    global_plan = round_plan.with_num_epochs(total_epochs)
    raw = Schedule(sends=sorted(all_sends), tau=round_plan.tau,
                   chunk_bytes=config.chunk_bytes, num_epochs=total_epochs)
    delivered = _delivered_epochs(raw, global_plan, demand)
    pruned = prune_sends(raw, demand, topology, global_plan, delivered,
                         store_and_forward=config.store_and_forward)
    return AStarOutcome(schedule=pruned, raw_schedule=raw, plan=global_plan,
                        rounds=rounds,
                        finish_time=pruned.finish_time(topology))


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _solve_round(topology: Topology, remaining: Demand, config: TecclConfig,
                 plan: EpochPlan, holders: dict[Commodity, set[int]],
                 injections: dict[tuple[int, int, int, int], int],
                 weights: dict[int, dict[int, float]], gamma: float,
                 carry: dict[tuple[int, int, int], int],
                 ) -> tuple[MilpProblem, SolveResult]:
    builder = MilpBuilder(
        topology, remaining, config, plan,
        initial_holders=holders, injections=injections,
        require_completion=False, allow_overhang=True,
        capacity_carry=carry)
    problem = builder.build()
    _add_potential(problem, remaining, weights, gamma)
    result = problem.model.solve(config.solver).require_solution()
    return problem, result


def _add_potential(problem: MilpProblem, remaining: Demand,
                   weights: dict[int, dict[int, float]],
                   gamma: float) -> None:
    """Appendix D's distance reward, added on top of the R objective."""
    model = problem.model
    plan = problem.plan
    K = plan.num_epochs
    # End-of-round presence per commodity and node: the final buffer plus
    # any overhanging send that will land at that node next round.
    present: dict[tuple[Commodity, int], list[int]] = {}
    for (q, n, k), col in problem.b_vars.items():
        if k == K:
            present.setdefault((q, n), []).append(col)
    for (q, i, j, k), col in problem.f_vars.items():
        if k + plan.arrival_offset(i, j) + 1 > K:
            present.setdefault((q, j), []).append(col)
    gpus = [n for n in problem.topology.nodes
            if not problem.topology.is_switch(n)]

    # one P per (commodity, destination) with any presence:
    # P - sum(w * presence) <= 0
    rows, cols, data = [], [], []
    num_p = 0
    for q in remaining.commodities():
        for d in remaining.destinations(*q):
            terms = [(col, -weights[n][d]) for n in gpus
                     for col in present.get((q, n), ())]
            if not terms:
                continue
            rows += [num_p] * len(terms)
            cols += [col for col, _ in terms]
            data += [w for _, w in terms]
            num_p += 1
    p = model.add_var_array(num_p, ub=1.0, name="P")
    model.add_constr_coo(np.concatenate([rows, np.arange(num_p)]),
                         np.concatenate([cols, p]),
                         np.concatenate([data, np.ones(num_p)]),
                         -np.inf, 0.0, num_rows=num_p)
    r = problem.r_vars
    model.set_objective_array(
        np.concatenate([r.column, p]),
        np.concatenate([1.0 / (r.epoch + 1), np.full(num_p, gamma)]))


def _extract_sends(problem: MilpProblem, result: SolveResult) -> list[Send]:
    sends = []
    for (q, i, j, k), col in problem.f_vars.items():
        if result.value(col) > 0.5:
            sends.append(Send(epoch=k, source=q[0], chunk=q[1], src=i, dst=j))
    return sorted(sends)


def _capacity_carry(plan: EpochPlan,
                    round_sends: list[Send],
                    ) -> dict[tuple[int, int, int], int]:
    """Transmissions whose κ-epoch occupancy spills into the next round.

    A send at epoch k on a link with occupancy κ holds the wire through
    epoch k + κ − 1; if that crosses the round boundary, the next round sees
    it at virtual (negative) epoch k − K.
    """
    K = plan.num_epochs
    carry: dict[tuple[int, int, int], int] = {}
    for send in round_sends:
        kappa = plan.occupancy[send.link]
        if kappa > 1 and send.epoch + kappa - 1 >= K:
            key = (send.src, send.dst, send.epoch - K)
            carry[key] = carry.get(key, 0) + 1
    return carry


def _advance_state(topology: Topology, plan: EpochPlan,
                   holders: dict[Commodity, set[int]],
                   injections: dict[tuple[int, int, int, int], int],
                   round_sends: list[Send], remaining: Demand,
                   ) -> tuple[dict[Commodity, set[int]],
                              dict[tuple[int, int, int, int], int],
                              list[Triple]]:
    """Fold a round's sends into the next round's initial state."""
    K = plan.num_epochs
    new_holders: dict[Commodity, set[int]] = {
        q: set(nodes) for q, nodes in holders.items()}
    new_injections: dict[tuple[int, int, int, int], int] = {}
    # chunks that were in flight at the start of this round have landed now
    for (s, c, n, _), _count in injections.items():
        new_holders.setdefault((s, c), set()).add(n)
    for send in round_sends:
        arrival = send.epoch + plan.arrival_offset(send.src, send.dst) + 1
        if topology.is_switch(send.dst):
            continue  # switches never hold chunks across epochs
        q = (send.source, send.chunk)
        if arrival <= K:
            new_holders.setdefault(q, set()).add(send.dst)
        else:
            key = (send.source, send.chunk, send.dst, arrival - K)
            new_injections[key] = new_injections.get(key, 0) + 1
    satisfied = [
        (s, c, d) for s, c, d in remaining.triples()
        if d in new_holders.get((s, c), set())]
    return new_holders, new_injections, satisfied


def _delivered_epochs(schedule: Schedule, plan: EpochPlan, demand: Demand,
                      ) -> dict[Triple, int]:
    """Earliest epoch by whose end each demanded triple is at its sink."""
    arrival_epoch: dict[tuple[int, int, int], int] = {}
    for send in schedule.sends:
        pool = send.epoch + plan.arrival_offset(send.src, send.dst) + 1
        key = (send.source, send.chunk, send.dst)
        if key not in arrival_epoch or pool < arrival_epoch[key]:
            arrival_epoch[key] = pool
    delivered = {}
    for s, c, d in demand.triples():
        pool = arrival_epoch.get((s, c, d))
        if pool is None:
            raise InfeasibleError(
                f"A* schedule never delivers ({s},{c}) to {d}")
        delivered[(s, c, d)] = pool - 1
    return delivered
