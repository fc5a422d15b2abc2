"""Checkpoint-restart repair of a collective schedule after link failures.

The repair model is fail-stop at epoch granularity: at the (earliest)
failure epoch F the original schedule is abandoned, the physical location of
every chunk at that instant is reconstructed by replaying the schedule
prefix, the unmet demand is *re-homed* onto the nearest surviving copies,
and TE-CCL re-synthesizes the residual collective on the degraded fabric.
Total recovery time is then ``F·τ + residual finish time``.

Re-homing is what distinguishes this from naive restart: a chunk that
already crossed the fabric once is re-broadcast from where it got to, not
from its original source — the partial progress of the dead schedule is
kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.baselines.shortest_path import shortest_path
from repro.collectives.demand import Demand, Triple
from repro.core.config import TecclConfig
from repro.core.epochs import EpochPlan
from repro.core.schedule import FlowSchedule, Schedule
from repro.core.solve import Method, SynthesisResult, synthesize
from repro.errors import InfeasibleError, ModelError, TopologyError
from repro.failures.inject import FailureEvent, degraded_topology
from repro.topology.topology import Topology


@dataclass
class NetworkState:
    """Where every commodity physically is at one instant.

    Attributes:
        epoch: the instant (start of this epoch).
        holders: per commodity, the GPU nodes holding a full copy.
        in_flight: sends started before the instant that land after it,
            as ``(commodity, destination, arrival_epoch)`` records. The
            conservative repair ignores these copies (they may be on a
            link that just died); they are reported for diagnostics.
        delivered: demand triples already satisfied.
    """

    epoch: int
    holders: dict[tuple[int, int], set[int]] = field(default_factory=dict)
    in_flight: list[tuple[tuple[int, int], int, int]] = field(
        default_factory=list)
    delivered: set[Triple] = field(default_factory=set)

    def progress(self, demand: Demand) -> float:
        """Fraction of demanded triples already delivered at the instant."""
        total = demand.num_triples
        if total == 0:
            raise ModelError("empty demand has no progress")
        return len(self.delivered) / total


def network_state_at(schedule: Schedule, topology: Topology, demand: Demand,
                     plan: EpochPlan, epoch: int) -> NetworkState:
    """Replay the schedule prefix and reconstruct the state at ``epoch``.

    Sends that *start* before ``epoch`` execute (fail-stop lets in-flight
    transfers finish); a copy counts as held only once its arrival lands at
    a GPU by the start of ``epoch`` — switches never hold chunks (§3.1).
    A fractional :class:`FlowSchedule` has no integral send prefix to
    replay and is rejected.
    """
    if isinstance(schedule, FlowSchedule):
        raise ModelError(
            "a fractional (LP) schedule has no integral send prefix to "
            "replay; re-synthesize on degraded_topology(topology, "
            "failures) instead")
    if epoch < 0:
        raise ModelError("epoch must be non-negative")
    state = NetworkState(epoch=epoch)
    for (s, c) in demand.commodities():
        state.holders[(s, c)] = {s}
    for send in sorted(schedule.sends):
        if send.epoch >= epoch:
            break
        if send.commodity not in state.holders:
            continue  # a send for a commodity outside this demand
        if topology.is_switch(send.dst):
            continue  # relays are transient; the exit hop is its own send
        arrival = send.epoch + plan.arrival_offset(send.src, send.dst) + 1
        if arrival <= epoch:
            state.holders[send.commodity].add(send.dst)
        else:
            state.in_flight.append((send.commodity, send.dst, arrival))
    for s, c, d in demand.triples():
        if d in state.holders[(s, c)]:
            state.delivered.add((s, c, d))
    return state


def rehome_demand(state: NetworkState, demand: Demand, degraded: Topology,
                  chunk_bytes: float,
                  ) -> tuple[Demand, dict[Triple, Triple]]:
    """Re-express the unmet demand over the surviving chunk copies.

    Every undelivered destination is assigned the *closest* holder of its
    chunk on the degraded fabric (α+β shortest-path distance); triples
    sharing (original commodity, holder) collapse into one re-homed
    commodity so in-network copy still applies downstream.

    Returns the re-homed demand and the map from re-homed triples back to
    the original triples (empty demand when everything was delivered).
    """
    residual = [t for t in demand.triples() if t not in state.delivered]
    groups: dict[tuple[int, int, int], list[int]] = {}
    for s, c, d in residual:
        best_holder: int | None = None
        best_cost = float("inf")
        for holder in sorted(state.holders[(s, c)]):
            try:
                path = shortest_path(degraded, holder, d, chunk_bytes)
            except InfeasibleError:
                continue
            cost = sum(
                degraded.link(a, b).transfer_time(chunk_bytes)
                for a, b in zip(path, path[1:]))
            if cost < best_cost:
                best_cost, best_holder = cost, holder
        if best_holder is None:
            raise InfeasibleError(
                f"destination {d} unreachable from every holder of chunk "
                f"({s},{c}) on the degraded fabric")
        groups.setdefault((s, c, best_holder), []).append(d)

    next_chunk: dict[int, int] = {}
    mapping: dict[Triple, Triple] = {}
    triples: list[Triple] = []
    for (s, c, holder), dests in sorted(groups.items()):
        chunk_id = next_chunk.get(holder, 0)
        next_chunk[holder] = chunk_id + 1
        for d in dests:
            rehomed = (holder, chunk_id, d)
            mapping[rehomed] = (s, c, d)
            triples.append(rehomed)
    if not triples:
        return Demand.empty(), {}
    return Demand.from_triples(triples), mapping


@dataclass
class RepairOutcome:
    """The result of a checkpoint-restart repair."""

    state: NetworkState
    residual_demand: Demand
    mapping: dict[Triple, Triple]
    degraded: Topology
    #: ``None`` when the failure struck after everything was delivered.
    synthesis: SynthesisResult | None
    restart_epoch: int
    tau: float

    @property
    def residual_finish_time(self) -> float:
        return self.synthesis.finish_time if self.synthesis else 0.0

    @property
    def total_time(self) -> float:
        """Wall-clock completion: prefix until the failure, then repair."""
        return self.restart_epoch * self.tau + self.residual_finish_time

    def overhead_over(self, unfailed_finish: float) -> float:
        """Relative slowdown versus the failure-free schedule."""
        if unfailed_finish <= 0:
            raise ModelError("unfailed finish time must be positive")
        return (self.total_time - unfailed_finish) / unfailed_finish

    def check_conformance(self, config: TecclConfig | None = None):
        """Replay the residual schedule on the degraded fabric.

        Returns the :class:`~repro.simulate.ConformanceReport` for the
        repair synthesis (``None`` when the failure struck after everything
        was delivered and there is nothing to replay). The residual
        schedule must be executable on the *degraded* topology — exactly
        what an operator needs to trust before shipping the repair.
        """
        if self.synthesis is None:
            return None
        from repro.simulate import check_result

        replay_config = None if config is None else replace(
            config, num_epochs=None, priorities=None)
        return check_result(self.synthesis, config=replay_config)


def repair_schedule(topology: Topology, demand: Demand, config: TecclConfig,
                    schedule: Schedule, plan: EpochPlan,
                    failures: list[FailureEvent], *,
                    method: Method = Method.AUTO) -> RepairOutcome:
    """Abandon the schedule at the first failure and re-synthesize.

    The residual synthesis runs with an automatically estimated horizon
    (the original ``config.num_epochs`` was sized for the full collective,
    not the residual) and without multi-tenant priorities (they are keyed
    by original triples, which re-homing renames). ``schedule`` must be
    integral (:func:`network_state_at`).
    """
    if not failures:
        raise ModelError("no failures to repair")
    cutoff = min(f.epoch for f in failures)
    state = network_state_at(schedule, topology, demand, plan, cutoff)
    degraded = degraded_topology(topology, failures)
    try:
        degraded.validate()
    except TopologyError as err:
        raise InfeasibleError(
            f"fabric partitioned by failures: {err}") from err
    residual, mapping = rehome_demand(state, demand, degraded,
                                      config.chunk_bytes)
    if residual.is_empty():
        return RepairOutcome(state=state, residual_demand=residual,
                             mapping={}, degraded=degraded, synthesis=None,
                             restart_epoch=cutoff, tau=plan.tau)
    residual_config = replace(config, num_epochs=None, priorities=None)
    synthesis = synthesize(degraded, residual, residual_config,
                           method=method)
    return RepairOutcome(state=state, residual_demand=residual,
                         mapping=mapping, degraded=degraded,
                         synthesis=synthesis, restart_epoch=cutoff,
                         tau=plan.tau)


@dataclass(frozen=True)
class ImpactRow:
    """One line of the criticality report: fail this link, pay this much."""

    link: tuple[int, int]
    finish_time: float
    slowdown: float
    survivable: bool


def failure_impact(topology: Topology, demand: Demand, config: TecclConfig,
                   *, links: list[tuple[int, int]] | None = None,
                   method: Method = Method.AUTO) -> list[ImpactRow]:
    """Steady-state criticality: re-synthesize with each link removed.

    Unsurvivable failures (the fabric partitions) report an infinite
    finish time. Rows are sorted worst-first — the operator's "which cable
    do I dual-home" list.
    """
    baseline = synthesize(topology, demand, config, method=method)
    rows = []
    for link in sorted(links if links is not None else topology.links):
        event = FailureEvent(epoch=0, link=link)
        try:
            degraded = degraded_topology(topology, [event])
            degraded.validate()
            demand.validate(degraded)
            result = synthesize(degraded, demand, replace(
                config, num_epochs=None), method=method)
            finish, survivable = result.finish_time, True
        except (InfeasibleError, TopologyError):
            finish, survivable = float("inf"), False
        rows.append(ImpactRow(
            link=link, finish_time=finish,
            slowdown=finish / baseline.finish_time,
            survivable=survivable))
    rows.sort(key=lambda r: (-r.slowdown, r.link))
    return rows
