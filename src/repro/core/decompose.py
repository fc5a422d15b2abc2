"""Temporal flow decomposition: LP rates → per-chunk paths → integral sends.

§4.1: "Our LP produces a rate allocation to demands ... From this we generate
a schedule that we then execute in hardware (we translate these rates to
paths for each chunk through the same DFS-like solution)". This module is
that translation. It decomposes a (pruned) :class:`FlowSchedule` over the
time-expanded graph into *strips* — (amount, timed path) pairs — and
quantises strips into unit-chunk :class:`Schedule` sends, one fresh chunk id
per unit, for the event simulator (:func:`strips_to_events`).

The decomposition walks each read backwards through the pools (the same
structure the pruner uses), peeling off the bottleneck amount along one
provider chain at a time. Conservation guarantees every strip terminates at
the commodity's origin; each strip zeroes at least one residual, so the
number of strips is at most #flows + #reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.epochs import EpochPlan
from repro.core.schedule import FlowSchedule, Schedule, Send
from repro.errors import ScheduleError
from repro.topology.topology import Topology

_TOL = 1e-7


@dataclass(frozen=True)
class TimedHop:
    """One hop of a strip: the link plus the epoch the transfer starts."""

    src: int
    dst: int
    epoch: int


@dataclass
class PathStrip:
    """A fractional chunk following one timed path to one destination."""

    commodity: object
    destination: int
    amount: float
    hops: tuple[TimedHop, ...]
    read_epoch: int

    @property
    def nodes(self) -> list[int]:
        if not self.hops:
            return [self.destination]
        return [self.hops[0].src] + [h.dst for h in self.hops]


@dataclass
class _Residuals:
    flows: dict[tuple, float]
    buffers: dict[tuple, float] | None
    arrivals: dict[tuple, list[tuple]] = field(default_factory=dict)

    def hold_capacity(self, q, node, pool) -> float:
        if self.buffers is None:
            return float("inf")
        return self.buffers.get((q, node, pool), 0.0)

    def take_hold(self, q, node, pool, amount) -> None:
        if self.buffers is not None:
            self.buffers[(q, node, pool)] -= amount


def decompose(flow_schedule: FlowSchedule, topology: Topology,
              plan: EpochPlan,
              buffers: dict[tuple, float] | None = None) -> list[PathStrip]:
    """Decompose a pruned flow schedule into timed path strips.

    Args:
        buffers: the LP's ``B`` values (hold capacities); ``None`` treats
            buffering as unlimited, which is safe on pruned schedules whose
            flows all feed reads.

    Raises :class:`ScheduleError` if some read cannot be traced to the
    origin — which would mean the schedule violates conservation.
    """
    residual = _Residuals(
        flows=dict(flow_schedule.flows),
        buffers=dict(buffers) if buffers is not None else None)
    for (q, i, j, k), _amount in flow_schedule.flows.items():
        pool = k + plan.arrival_offset(i, j) + 1
        residual.arrivals.setdefault((q, j, pool), []).append((q, i, j, k))

    strips: list[PathStrip] = []
    for (q, d, read_epoch), amount in sorted(flow_schedule.reads.items(),
                                             key=lambda kv: kv[0][2]):
        remaining = amount
        guard = 0
        while remaining > _TOL:
            guard += 1
            if guard > 10_000:
                raise ScheduleError("decomposition did not converge")
            strip_amount, hops = _trace_one(residual, q, d,
                                            read_epoch + 1, remaining,
                                            topology, plan)
            strips.append(PathStrip(commodity=q, destination=d,
                                    amount=strip_amount,
                                    hops=tuple(hops),
                                    read_epoch=read_epoch))
            remaining -= strip_amount
    return strips


def _trace_one(residual: _Residuals, q, node: int, pool: int,
               want: float, topology: Topology,
               plan: EpochPlan) -> tuple[float, list[TimedHop]]:
    """Peel one strip of up to ``want`` ending at (node, pool).

    Walks backwards preferring arrivals (so hops are recovered), falling
    back to hold; returns the bottleneck amount and the forward hop list.
    """
    origin = q[0] if isinstance(q, tuple) else q
    hops_reversed: list[TimedHop] = []
    amount = want
    current, current_pool = node, pool
    guard = 0
    while current != origin:
        guard += 1
        if guard > 100_000:
            raise ScheduleError("backward trace did not terminate")
        flow_key = _pick_arrival(residual, q, current, current_pool)
        if flow_key is not None:
            available = residual.flows[flow_key]
            amount = min(amount, available)
            _, i, j, k = flow_key
            hops_reversed.append(TimedHop(src=i, dst=j, epoch=k))
            current, current_pool = i, k
            continue
        if current == origin:
            break
        hold = residual.hold_capacity(q, current, current_pool - 1)
        if hold > _TOL and current_pool > 0 \
                and not topology.is_switch(current):
            amount = min(amount, hold)
            current_pool -= 1
            continue
        raise ScheduleError(
            f"cannot trace commodity {q} at node {current}, pool "
            f"{current_pool} back to origin {origin}")

    # commit: decrement residuals along the chosen chain
    pool_cursor = pool
    node_cursor = node
    for hop in hops_reversed:
        # account holds between this arrival and where we came from
        arrival_pool = hop.epoch + plan.arrival_offset(hop.src, hop.dst) + 1
        for held_pool in range(arrival_pool, pool_cursor):
            residual.take_hold(q, node_cursor, held_pool, amount)
        key = (q, hop.src, hop.dst, hop.epoch)
        residual.flows[key] -= amount
        if residual.flows[key] <= _TOL:
            residual.flows[key] = 0.0
        node_cursor = hop.src
        pool_cursor = hop.epoch
    return amount, list(reversed(hops_reversed))


def _pick_arrival(residual: _Residuals, q, node: int, pool: int):
    for flow_key in residual.arrivals.get((q, node, pool), []):
        if residual.flows.get(flow_key, 0.0) > _TOL:
            return flow_key
    return None


def strips_to_events(strips: list[PathStrip], plan: EpochPlan):
    """Strips → (integral schedule, synthetic demand) for event execution.

    Each unit of each strip gets a fresh chunk id per source, so the event
    simulator treats the units as distinct bytes even when the LP aggregated
    a source's chunks into one commodity. Use this to measure a fractional
    schedule's continuous-time finish (free of epoch quantisation).
    """
    import math

    from repro.collectives.demand import Demand

    # Allocate integral units per (commodity, destination) across that
    # pair's strips by largest remainder, so fractional path splits round to
    # the demanded total instead of inflating it.
    by_sink: dict[tuple, list[PathStrip]] = {}
    for strip in strips:
        by_sink.setdefault((strip.commodity, strip.destination),
                           []).append(strip)
    sends: list[Send] = []
    triples: list[tuple[int, int, int]] = []
    next_chunk: dict[int, int] = {}
    for (q, d), group in sorted(by_sink.items(), key=lambda kv: str(kv[0])):
        source = q[0] if isinstance(q, tuple) else q
        total_units = max(1, round(sum(s.amount for s in group)))
        floors = [math.floor(s.amount) for s in group]
        leftover = total_units - sum(floors)
        order = sorted(range(len(group)),
                       key=lambda i: group[i].amount - floors[i],
                       reverse=True)
        units = list(floors)
        for i in order[:max(0, leftover)]:
            units[i] += 1
        for strip, count in zip(group, units):
            for _ in range(count):
                chunk = next_chunk.get(source, 0)
                next_chunk[source] = chunk + 1
                triples.append((source, chunk, d))
                for hop in strip.hops:
                    sends.append(Send(epoch=hop.epoch, source=source,
                                      chunk=chunk, src=hop.src, dst=hop.dst))
    num_epochs = max((s.epoch for s in sends), default=0) + 1
    schedule = Schedule(sends=sorted(sends), tau=plan.tau,
                        chunk_bytes=plan.chunk_bytes, num_epochs=num_epochs)
    return schedule, Demand.from_triples(triples)

