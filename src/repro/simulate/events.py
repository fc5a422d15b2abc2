"""A continuous-time event simulator for collective schedules.

The epoch-grid replay (:mod:`repro.simulate.conformance`) validates a
schedule against the *model* TE-CCL optimised. This module answers the next
question the paper asks (§6 "Platform"): what would the schedule do on real
hardware, where time is not quantised? It executes sends under the α–β
model with per-link FIFO serialisation:

* a link transmits one chunk at a time, each occupying the wire for
  ``S/capacity`` seconds and landing ``α`` seconds after transmission ends;
* a send becomes eligible as soon as the sender holds the chunk; per link,
  sends transmit in scheduled-epoch order (the schedule's ordering is kept,
  its absolute timing is not — that is the point);
* every node holds chunks once received. This is *lenient* for zero-buffer
  switches: the executor measures timing, not switch-memory feasibility —
  :func:`repro.simulate.check_schedule` owns that check.

The gap between the event-simulated finish and the α–β epoch estimate is the
discretisation error — reported by :func:`quantisation_gap` and kept small
by construction (the paper validated the same estimates on a DGX1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.collectives.demand import Demand
from repro.core.schedule import Schedule, Send
from repro.errors import ScheduleError
from repro.topology.topology import Topology


@dataclass(frozen=True)
class ChunkArrival:
    """One chunk landing at one node, in wall-clock seconds."""

    time: float
    source: int
    chunk: int
    node: int


@dataclass(frozen=True)
class Transmission:
    """One chunk occupying one link: the wire interval and the landing."""

    link: tuple[int, int]
    start: float
    end: float
    arrival: float
    source: int
    chunk: int


@dataclass
class EventReport:
    """Result of a continuous-time execution."""

    finish_time: float
    arrivals: list[ChunkArrival]
    link_busy: dict[tuple[int, int], float]
    delivered: dict[tuple[int, int, int], float]
    transmissions: list[Transmission] = field(default_factory=list)

    def utilisation(self, topology: Topology) -> dict[tuple[int, int], float]:
        """Busy fraction per link over the collective's duration."""
        if self.finish_time <= 0:
            return {key: 0.0 for key in self.link_busy}
        return {key: busy / self.finish_time
                for key, busy in self.link_busy.items()}


def run_events(schedule: Schedule, topology: Topology, demand: Demand,
               ) -> EventReport:
    """Execute the schedule in continuous time; returns arrivals and finish.

    Raises :class:`ScheduleError` if the schedule deadlocks (a send waits on
    a chunk that never arrives) or leaves demands unmet.
    """
    # availability time per (source, chunk, node); sources start at 0
    available: dict[tuple[int, int, int], float] = {}
    for s, c in demand.commodities():
        available[(s, c, s)] = 0.0
    # per-link FIFO: time the wire frees up
    link_free: dict[tuple[int, int], float] = {
        key: 0.0 for key in topology.links}
    link_busy: dict[tuple[int, int], float] = {
        key: 0.0 for key in topology.links}

    # Event loop: repeatedly dispatch the eligible send with the earliest
    # possible start. A heap keyed by (earliest start, epoch, order) would
    # need re-keying as links free up; with schedule sizes in the thousands a
    # simple scan per dispatch is fast enough and obviously correct.
    #
    # Ties are frequent (float-equal start times whenever several chunks
    # become eligible at an epoch boundary), so the dispatch key breaks them
    # all the way down to the send's identity. The trace is therefore a pure
    # function of the schedule's *set* of sends — independent of list order —
    # which the determinism regression test in tests/test_events.py pins.
    remaining: list[Send] = sorted(schedule.sends)
    dispatched: set[int] = set()
    arrivals: list[ChunkArrival] = []
    transmissions: list[Transmission] = []
    while len(dispatched) < len(remaining):
        best_index = -1
        best_key: tuple | None = None
        for idx, send in enumerate(remaining):
            if idx in dispatched:
                continue
            ready = available.get((send.source, send.chunk, send.src))
            if ready is None:
                continue
            start = max(ready, link_free[send.link])
            # epoch ordering is preserved per link: a later-epoch send never
            # jumps an earlier one on the same link; beyond that the send's
            # identity is the stable tie-break under float-equal starts
            key = (start, send.epoch, send.src, send.dst, send.source,
                   send.chunk)
            if best_key is None or key < best_key:
                best_key, best_index = key, idx
        if best_index < 0:
            stuck = [remaining[i] for i in range(len(remaining))
                     if i not in dispatched]
            raise ScheduleError(
                f"event simulation deadlocked with {len(stuck)} sends "
                f"waiting (first: {stuck[0]})")
        send = remaining[best_index]
        best_start = best_key[0]
        dispatched.add(best_index)
        link = topology.link(send.src, send.dst)
        transmit = schedule.chunk_bytes / link.capacity
        end_of_wire = best_start + transmit
        arrival_time = end_of_wire + link.alpha
        link_free[send.link] = end_of_wire
        link_busy[send.link] += transmit
        key = (send.source, send.chunk, send.dst)
        if key not in available or arrival_time < available[key]:
            available[key] = arrival_time
        arrivals.append(ChunkArrival(time=arrival_time, source=send.source,
                                     chunk=send.chunk, node=send.dst))
        transmissions.append(Transmission(
            link=send.link, start=best_start, end=end_of_wire,
            arrival=arrival_time, source=send.source, chunk=send.chunk))

    delivered: dict[tuple[int, int, int], float] = {}
    finish = 0.0
    for s, c in demand.commodities():
        for d in demand.destinations(s, c):
            t = available.get((s, c, d))
            if t is None:
                raise ScheduleError(
                    f"demand unmet in event simulation: ({s},{c})->{d}")
            delivered[(s, c, d)] = t
            finish = max(finish, t)
    # Stable full-identity keys: float-equal timestamps must not leave the
    # trace order at the mercy of the dispatch history.
    arrivals.sort(key=lambda a: (a.time, a.source, a.chunk, a.node))
    transmissions.sort(key=lambda t: (t.start, t.link, t.source, t.chunk))
    return EventReport(finish_time=finish, arrivals=arrivals,
                       link_busy=link_busy, delivered=delivered,
                       transmissions=transmissions)


def quantisation_gap(schedule: Schedule, topology: Topology,
                     demand: Demand) -> float:
    """Relative gap between the epoch-grid α–β estimate and event time.

    Positive values mean the epoch grid over-estimates (it rounds waiting to
    epoch boundaries); the event execution can only be faster or equal.
    """
    grid = schedule.finish_time(topology)
    event = run_events(schedule, topology, demand).finish_time
    if grid <= 0:
        raise ScheduleError("empty schedule has no finish time")
    return (grid - event) / grid
