"""Post-processing: zero out flows that serve no demand (§3.1).

The TE-CCL objective has multiple optima — schedules may contain sends that
satisfy nothing. The paper removes them after solving with a reverse-DFS from
each destination; adding an objective penalty instead slows the solver. This
module implements that pass for both solution flavors:

* :func:`prune_sends` — integral (MILP/A*) solutions. Copy semantics: one
  buffered chunk can serve many downstream needs, so marking is boolean.
* :func:`prune_fractional` — LP solutions. Conservation is an equality, so
  pruning allocates *mass* backwards through the time-expanded pools.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable

from repro.collectives.demand import Demand
from repro.core.epochs import EpochPlan
from repro.core.schedule import FlowSchedule, Schedule, Send
from repro.errors import ScheduleError
from repro.topology.topology import Topology

_TOL = 1e-7


def prune_sends(schedule: Schedule, demand: Demand, topology: Topology,
                plan: EpochPlan,
                delivered_epoch: dict[tuple[int, int, int], int],
                buffer_values: Callable[[int, int, int, int], bool] | None = None,
                store_and_forward: bool = True,
                ) -> Schedule:
    """Drop sends that serve no demanded triple.

    Args:
        schedule: the raw MILP/A* schedule.
        delivered_epoch: per demanded triple (s, c, d), the epoch by whose end
            the chunk must be at d (first epoch the solver reported delivery).
        buffer_values: optional oracle ``(s, c, n, k) -> bool`` saying whether
            the solution kept the chunk buffered at n at the start of epoch k.
            When omitted, buffering is assumed unlimited (chunks persist once
            they arrive) — correct whenever the model had no buffer limit.
        store_and_forward: whether the model let non-source GPUs buffer
            before relaying. Under the Figure 9 ablation a relayed send is
            fed by an arrival in that exact epoch (reads still draw the
            destination's buffer).

    The walk starts from every demanded triple and follows providers backwards
    in the time-expanded graph; a send is kept iff some demand transitively
    requires it. Raises :class:`ScheduleError` when the solution cannot
    actually supply a demand (which would mean the model was wrong).
    """
    # Index arrivals: (source, chunk, node) -> list of (buffer_epoch, send).
    arrivals: dict[tuple[int, int, int], list[tuple[int, Send]]] = {}
    for send in schedule.sends:
        buffer_epoch = send.epoch + plan.arrival_offset(send.src, send.dst) + 1
        arrivals.setdefault((send.source, send.chunk, send.dst), []).append(
            (buffer_epoch, send))
    for lst in arrivals.values():
        lst.sort()

    switches = topology.switches
    kept: set[Send] = set()
    # memo of satisfied needs: (source, chunk, node, epoch-of-need, relayed)
    satisfied: set[tuple[int, int, int, int, bool]] = set()

    def holds(s: int, c: int, n: int, k: int) -> bool:
        if buffer_values is None:
            return True
        return buffer_values(s, c, n, k)

    def satisfy(s: int, c: int, node: int, k: int,
                relayed: bool = False) -> None:
        """Ensure chunk (s, c) is available at `node` at buffer index k.

        ``relayed`` marks a need created by an outgoing send under the
        no-store-and-forward ablation: the chunk cannot come from the
        buffer, it must be arriving in that exact epoch.
        """
        key = (s, c, node, k, relayed)
        if key in satisfied:
            return
        satisfied.add(key)
        if node == s:
            return  # the source holds its own chunk from epoch 0
        if node in switches or relayed:
            # A switch (or a no-SF relay) holds nothing: the chunk must be
            # *arriving* exactly at buffer index k (sent Δ+1 epochs earlier).
            for buffer_epoch, send in arrivals.get((s, c, node), []):
                if buffer_epoch == k:
                    _require_send(s, c, send)
                    return
            raise ScheduleError(
                f"chunk ({s},{c}) needed at "
                f"{'switch' if node in switches else 'relay'} {node} at "
                f"epoch {k} but no send arrives then")
        # GPU: find the latest arrival at buffer index k' <= k such that the
        # chunk stayed buffered from k' through k.
        best: tuple[int, Send] | None = None
        for buffer_epoch, send in arrivals.get((s, c, node), []):
            if buffer_epoch <= k:
                if all(holds(s, c, node, t) for t in range(buffer_epoch, k + 1)):
                    if best is None or buffer_epoch > best[0]:
                        best = (buffer_epoch, send)
        if best is None:
            raise ScheduleError(
                f"chunk ({s},{c}) needed at node {node} by epoch {k} "
                "but never arrives")
        _require_send(s, c, best[1])

    def _require_send(s: int, c: int, send: Send) -> None:
        if send in kept:
            return
        kept.add(send)
        # The sender needed the chunk at the send's start epoch; under the
        # Figure 9 ablation a non-source sender relays an arrival instead.
        satisfy(s, c, send.src, send.epoch,
                relayed=not store_and_forward and send.src != s)

    for (s, c, d), epoch in delivered_epoch.items():
        if not demand.wants(s, c, d):
            continue
        satisfy(s, c, d, epoch + 1)

    return Schedule(sends=sorted(kept), tau=schedule.tau,
                    chunk_bytes=schedule.chunk_bytes,
                    num_epochs=schedule.num_epochs)


def prune_fractional(flow_schedule: FlowSchedule, topology: Topology,
                     plan: EpochPlan,
                     buffers: dict[tuple, float] | None = None,
                     ) -> FlowSchedule:
    """Allocate read mass backwards; drop flow that feeds no read.

    Pools ``(commodity, node, p)`` mirror the LP conservation equalities: the
    pool at index p is fed by sends arriving at index p (sent Δ+1 epochs
    earlier) and by mass held over from pool p−1 (the LP's ``B`` variable at
    index p−1), and it feeds reads at epoch p−1, sends at epoch p, and hold
    into pool p+1. Reads pull mass backwards; arrivals are consumed before
    hold, and hold is capped by the LP's actual ``B`` values so the
    allocation always succeeds (the equalities guarantee the disaggregation).

    Args:
        buffers: the LP's buffer values keyed ``(commodity, node, k)``; when
            omitted, hold capacity is treated as unlimited, which is sound
            only for integral copy-free solutions.
    """
    switches = topology.switches
    flows = flow_schedule.flows
    reads = flow_schedule.reads
    res_hold: dict[tuple, float] | None = (
        dict(buffers) if buffers is not None else None)

    # needed mass per pool index p, then per (q, node), in the order first
    # needed
    needed: defaultdict[int, dict[tuple, float]] = defaultdict(dict)
    for (q, d, k), amount in reads.items():
        # R at epoch k draws the pool at index k + 1.
        pool = needed[k + 1]
        pool[(q, d)] = pool.get((q, d), 0.0) + amount
    kept: dict[tuple, float] = {}

    # Arrivals indexed by destination pool index, Δ + 1 read once per link.
    landing = {link: plan.arrival_offset(*link) + 1
               for link in plan.occupancy}
    arrivals: dict[tuple, list[tuple]] = {}
    for flow_key in flows:
        q, i, j, k = flow_key
        arrivals.setdefault((q, j, k + landing[(i, j)]), []).append(flow_key)

    max_k = flow_schedule.num_epochs
    # Walk pools from the latest index to the earliest; by then every
    # downstream requirement on a pool is known (hold pushes to p−1, arrivals
    # push to the sender's pool at the send epoch, strictly earlier).
    for p in range(max_k + 1, -1, -1):
        for (q, node), remaining in needed.pop(p, {}).items():
            if remaining <= _TOL:
                continue
            origin = q[0] if isinstance(q, tuple) else q
            if node == origin:
                continue  # satisfied by the source's initial supply
            # each pool is walked once, so no flow has been drawn on yet
            for flow_key in arrivals.get((q, node, p), ()):
                if remaining <= _TOL:
                    break
                amount = flows[flow_key]
                # min(remaining, amount), without the call in the hot loop
                take = amount if amount < remaining else remaining
                if take > _TOL:
                    kept[flow_key] = take
                    remaining -= take
                    _, i, _, send_k = flow_key
                    sender = needed[send_k]
                    sender[(q, i)] = sender.get((q, i), 0.0) + take
            if remaining > _TOL and node not in switches and p > 0:
                if res_hold is None:
                    capacity = remaining
                else:
                    capacity = res_hold.get((q, node, p - 1), 0.0)
                take = min(remaining, capacity)
                if take > _TOL:
                    if res_hold is not None:
                        res_hold[(q, node, p - 1)] = capacity - take
                    held = needed[p - 1]
                    held[(q, node)] = held.get((q, node), 0.0) + take
                    remaining -= take
            if remaining > 1e-5:
                raise ScheduleError(
                    f"LP solution cannot supply {remaining:g} chunks of "
                    f"commodity {q} at node {node}, pool {p}")
    return FlowSchedule(flows=kept, reads=dict(reads),
                        tau=flow_schedule.tau,
                        chunk_bytes=flow_schedule.chunk_bytes,
                        num_epochs=flow_schedule.num_epochs)
