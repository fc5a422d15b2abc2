"""The scalar fractional-schedule replay, kept as a test oracle.

``repro.simulate.conformance.check_flow`` was once this: one Python walk
over the schedule's dict entries (≈ 6 µs a flow). It now replays the same
invariants as NumPy kernels over one array view, and must return an equal
report — the same violations in the same order with the same messages, and
bit-identical floats (:func:`assert_same_report`) — on every input;
``tests/test_flow_oracle.py`` holds it to that. The per-flow ``FlowSchedule.finish_time`` loop and
``prune_fractional`` as it rescanned every pool (with ``plan.arrival_offset``
called once per flow) are kept beside it for the same differential.
"""

from repro.collectives.demand import Demand
from repro.core.config import TecclConfig
from repro.core.epochs import EpochPlan
from repro.core.schedule import FlowSchedule
from repro.errors import ScheduleError
from repro.simulate.conformance import (FINISH_RTOL, FLOW_ATOL,
                                        ConformanceReport, Violation,
                                        _finish_compare)
from repro.topology.topology import Topology

_TOL = 1e-7


def bits(value):
    """A float (or anything) as its type and exact repr."""
    return (type(value), repr(value))


def assert_same_report(new, ref):
    """``new`` equals the reference report ``ref``: the same violations in
    the same order with the same messages, equal ``delivered`` and
    ``utilization`` in the same order, bit-identical floats."""
    assert new.violations == ref.violations
    assert [v.message for v in new.violations] == \
        [v.message for v in ref.violations]
    assert new.to_dict() == ref.to_dict()
    assert new.delivered == ref.delivered
    assert list(new.delivered) == list(ref.delivered)
    assert new.utilization == ref.utilization
    assert list(new.utilization) == list(ref.utilization)
    for name in ("finish_time", "total_flow", "total_bytes",
                 "claimed_finish_time", "finish_epoch", "num_sends"):
        assert bits(getattr(new, name)) == bits(getattr(ref, name)), name
    for key, value in ref.utilization.items():
        assert bits(new.utilization[key]) == bits(value)
    for key, value in ref.delivered.items():
        assert bits(new.delivered[key]) == bits(value)


def _epoch_capacity(plan: EpochPlan, config: TecclConfig | None,
                    i: int, j: int, k: int) -> float:
    """Per-epoch chunk budget, honouring a time-varying capacity hook."""
    if config is not None and config.capacity_fn is not None:
        return config.capacity_fn(i, j, k) * plan.tau / plan.chunk_bytes
    return plan.cap_chunks[(i, j)]


def _commodity_origin(key) -> int:
    return key[0] if isinstance(key, tuple) else key


def _demand_amounts(demand: Demand, keys) -> dict:
    """Per commodity key, the (supply, {sink: amount}) the LP was fed."""
    out = {}
    for key in keys:
        if isinstance(key, tuple):
            dests = demand.destinations(*key)
            out[key] = (float(len(dests)), {d: 1.0 for d in dests})
        else:
            sinks: dict[int, float] = {}
            supply = 0.0
            for c in demand.chunks_of(key):
                for d in demand.destinations(key, c):
                    sinks[d] = sinks.get(d, 0.0) + 1.0
                    supply += 1.0
            out[key] = (supply, sinks)
    return out


def reference_check_flow(flow: FlowSchedule, topology: Topology,
                         demand: Demand, plan: EpochPlan, *,
                         config: TecclConfig | None = None,
                         claimed_finish_time: float | None = None,
                         atol: float = FLOW_ATOL,
                         finish_rtol: float = FINISH_RTOL,
                         ) -> ConformanceReport:
    """The per-entry replay ``check_flow`` ran before it was written as
    array kernels; same arguments, same report."""
    report = ConformanceReport(claimed_finish_time=claimed_finish_time,
                               total_flow=sum(flow.flows.values()),
                               total_bytes=flow.total_bytes(),
                               finish_epoch=flow.finish_epoch)
    violations = report.violations
    buffer_limit = None if config is None else config.buffer_limit_chunks
    K = plan.num_epochs

    keys = {q for (q, _, _, _) in flow.flows} \
        | {q for (q, _, _) in flow.reads}
    amounts = _demand_amounts(demand, keys)

    link_load: dict[tuple[int, int, int], float] = {}
    for (q, i, j, k), amount in flow.flows.items():
        if amount < -atol:
            violations.append(Violation(
                kind="conservation", epoch=k, link=(i, j), commodity=q,
                message=f"negative flow {amount:.3g} on ({i},{j}) at "
                        f"epoch {k}"))
        if not topology.has_link(i, j):
            violations.append(Violation(
                kind="link", epoch=k, link=(i, j), commodity=q,
                message=f"flow on nonexistent link ({i},{j})"))
            continue
        if k >= K or k + plan.arrival_offset(i, j) + 1 > K:
            violations.append(Violation(
                kind="horizon", epoch=k, link=(i, j), commodity=q,
                message=(f"flow sent at epoch {k} on ({i},{j}) cannot land "
                         f"within the horizon K={K}")))
        link_load[(i, j, k)] = link_load.get((i, j, k), 0.0) + amount

    for (i, j, k), used in sorted(link_load.items()):
        if (i, j) not in topology.links:
            continue
        cap = _epoch_capacity(plan, config, i, j, k)
        if used > cap + atol:
            violations.append(Violation(
                kind="capacity", epoch=k, link=(i, j),
                message=(f"link ({i},{j}) carries {used:.6g} chunks at "
                         f"epoch {k}, capacity {cap:.6g}")))

    # --- causality & conservation per commodity -------------------------
    # Normalise every event to a pool index p: a send at epoch e arrives at
    # pool e + Δ + 1; a send consumes its node's pool at index e; a read at
    # epoch r consumes pool r + 1 (R[k] ≤ B[k+1] in the LP). The invariant
    # is prefix-wise: consumption through p never exceeds arrivals through p
    # plus the origin's supply.
    arrives: dict[tuple, dict[int, float]] = {}   # (q, node) -> pool -> mass
    consumes: dict[tuple, dict[int, float]] = {}
    for (q, i, j, k), amount in flow.flows.items():
        if not topology.has_link(i, j):
            continue
        pool = k + plan.arrival_offset(i, j) + 1
        arrives.setdefault((q, j), {})
        arrives[(q, j)][pool] = arrives[(q, j)].get(pool, 0.0) + amount
        consumes.setdefault((q, i), {})
        consumes[(q, i)][k] = consumes[(q, i)].get(k, 0.0) + amount
    for (q, d, k), amount in flow.reads.items():
        supply, sinks = amounts[q]
        if d not in sinks:
            violations.append(Violation(
                kind="delivery", epoch=k, commodity=q, node=d,
                message=(f"read of commodity {q} at node {d} which never "
                         "demanded it")))
        consumes.setdefault((q, d), {})
        consumes[(q, d)][k + 1] = consumes[(q, d)].get(k + 1, 0.0) + amount

    # node -> pool -> implied relay-buffer mass held at that pool index
    implied_buffers: dict[int, dict[int, float]] = {}
    for (q, node) in sorted(consumes, key=str):
        if topology.is_switch(node):
            continue
        supply = amounts[q][0] if _commodity_origin(q) == node else 0.0
        inflow = arrives.get((q, node), {})
        pools = sorted(set(inflow) | set(consumes[(q, node)]))
        running = supply
        for idx, p in enumerate(pools):
            running += inflow.get(p, 0.0)
            running -= consumes[(q, node)].get(p, 0.0)
            if running < -atol:
                violations.append(Violation(
                    kind="conservation", epoch=p, commodity=q, node=node,
                    message=(f"node {node} consumes {-running:.6g} more of "
                             f"commodity {q} than has arrived by pool "
                             f"index {p}")))
                running = 0.0  # report each deficit once, then re-anchor
            elif supply == 0.0 and running > atol:
                # Held-over mass at a relay: the implied LP buffer. It
                # persists until the next event, so spread it over the gap.
                until = pools[idx + 1] if idx + 1 < len(pools) else p + 1
                per_node = implied_buffers.setdefault(node, {})
                for k in range(p, min(until, K + 2)):
                    per_node[k] = per_node.get(k, 0.0) + running

    # --- zero-buffer switches: the LP's in(k) == out(k+1) equality -------
    # (in pool-index terms both sides land on the same index p). Forwarding
    # more than arrived is a causality break; forwarding less strands mass
    # at a bufferless node — the fractional analogue of "stranded".
    switch_keys = {key for key in consumes if topology.is_switch(key[1])} \
        | {key for key in arrives if topology.is_switch(key[1])}
    for (q, node) in sorted(switch_keys, key=str):
        inflow = arrives.get((q, node), {})
        outflow = consumes.get((q, node), {})
        for p in sorted(set(inflow) | set(outflow)):
            landed = inflow.get(p, 0.0)
            forwarded = outflow.get(p, 0.0)
            if forwarded > landed + atol:
                violations.append(Violation(
                    kind="switch", epoch=p, commodity=q, node=node,
                    message=(f"switch {node} forwards {forwarded:.6g} of "
                             f"commodity {q} at epoch {p} but only "
                             f"{landed:.6g} arrived for that epoch")))
            elif landed > forwarded + atol:
                violations.append(Violation(
                    kind="stranded", epoch=p, commodity=q, node=node,
                    message=(f"{landed - forwarded:.6g} of commodity {q} "
                             f"stranded at switch {node} (arrived for "
                             f"epoch {p}, never forwarded)")))

    if buffer_limit is not None:
        for node in sorted(implied_buffers):
            for p, mass in sorted(implied_buffers[node].items()):
                if mass > buffer_limit + atol:
                    violations.append(Violation(
                        kind="buffer", epoch=p, node=node,
                        message=(f"node {node} buffers {mass:.6g} chunks "
                                 f"at pool index {p}, budget "
                                 f"{buffer_limit:g}")))

    # --- demand delivery -------------------------------------------------
    read_totals: dict[tuple, float] = {}
    for (q, d, _), amount in flow.reads.items():
        read_totals[(q, d)] = read_totals.get((q, d), 0.0) + amount
    for q in sorted(keys, key=str):
        _, sinks = amounts[q]
        for d, amount in sorted(sinks.items()):
            got = read_totals.get((q, d), 0.0)
            report.delivered[(q, d)] = got
            if got < amount - atol:
                violations.append(Violation(
                    kind="delivery", commodity=q, node=d,
                    message=(f"demand unmet: sink {d} read {got:.6g} of "
                             f"{amount:g} demanded of commodity {q}")))
    # commodities with no flow and no reads at all (entirely undelivered)
    demanded_keys = set()
    if demand.benefits_from_copy() or any(
            isinstance(k, tuple) for k in keys) or not keys:
        demanded_keys = set(demand.commodities())
    else:
        demanded_keys = set(demand.sources)
    for q in sorted(demanded_keys - keys, key=str):
        violations.append(Violation(
            kind="delivery", commodity=q,
            message=f"demand unmet: commodity {q} never moves"))

    # --- replayed finish: serialized per-link α–β arrival ----------------
    finish = 0.0
    busy: dict[tuple[int, int], float] = {}
    for (i, j, k), amount in link_load.items():
        if (i, j) not in topology.links:
            continue
        link = topology.link(i, j)
        finish = max(finish, k * plan.tau
                     + link.transfer_time(amount * plan.chunk_bytes))
        busy[(i, j)] = busy.get((i, j), 0.0) \
            + amount * plan.chunk_bytes / link.capacity
    report.finish_time = finish
    if finish > 0:
        report.utilization = {key: b / finish for key, b in busy.items()}
    else:
        report.utilization = {key: 0.0 for key in busy}

    _finish_compare(report, finish_rtol)
    return report


def reference_finish_time(flow: FlowSchedule, topology: Topology) -> float:
    """``FlowSchedule.finish_time`` as a per-entry loop."""
    finish = 0.0
    loads: dict[tuple[int, int, int], float] = {}
    for (_, i, j, k), amount in flow.flows.items():
        loads[(i, j, k)] = loads.get((i, j, k), 0.0) + amount
    for (i, j, k), amount in loads.items():
        link = topology.link(i, j)
        finish = max(finish, k * flow.tau
                     + link.transfer_time(amount * flow.chunk_bytes))
    return finish


def reference_prune_fractional(flow_schedule: FlowSchedule,
                               topology: Topology, plan: EpochPlan,
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
    flows = dict(flow_schedule.flows)
    reads = flow_schedule.reads
    res_hold: dict[tuple, float] | None = (
        dict(buffers) if buffers is not None else None)

    # needed mass per pool (q, node, p)
    needed: dict[tuple, float] = {}
    for (q, d, k), amount in reads.items():
        # R at epoch k draws the pool at index k + 1.
        key = (q, d, k + 1)
        needed[key] = needed.get(key, 0.0) + amount
    kept: dict[tuple, float] = {}

    # Arrivals indexed by destination pool index.
    arrivals: dict[tuple, list[tuple]] = {}
    for (q, i, j, k), amount in flows.items():
        pool = k + plan.arrival_offset(i, j) + 1
        arrivals.setdefault((q, j, pool), []).append((q, i, j, k))

    max_k = flow_schedule.num_epochs
    # Walk pools from the latest index to the earliest; by then every
    # downstream requirement on a pool is known (hold pushes to p−1, arrivals
    # push to the sender's pool at the send epoch, strictly earlier).
    for p in range(max_k + 1, -1, -1):
        pool_keys = [key for key in needed
                     if key[2] == p and needed[key] > _TOL]
        for q, node, _ in pool_keys:
            remaining = needed.pop((q, node, p))
            origin = q[0] if isinstance(q, tuple) else q
            if node == origin:
                continue  # satisfied by the source's initial supply
            for flow_key in arrivals.get((q, node, p), []):
                if remaining <= _TOL:
                    break
                available = flows.get(flow_key, 0.0) - kept.get(flow_key, 0.0)
                take = min(remaining, available)
                if take > _TOL:
                    kept[flow_key] = kept.get(flow_key, 0.0) + take
                    remaining -= take
                    _, i, _, send_k = flow_key
                    key = (q, i, send_k)
                    needed[key] = needed.get(key, 0.0) + take
            if remaining > _TOL and node not in switches and p > 0:
                if res_hold is None:
                    capacity = remaining
                else:
                    capacity = res_hold.get((q, node, p - 1), 0.0)
                take = min(remaining, capacity)
                if take > _TOL:
                    if res_hold is not None:
                        res_hold[(q, node, p - 1)] = capacity - take
                    key = (q, node, p - 1)
                    needed[key] = needed.get(key, 0.0) + take
                    remaining -= take
            if remaining > 1e-5:
                raise ScheduleError(
                    f"LP solution cannot supply {remaining:g} chunks of "
                    f"commodity {q} at node {node}, pool {p}")
    return FlowSchedule(flows=kept, reads=dict(reads),
                        tau=flow_schedule.tau,
                        chunk_bytes=flow_schedule.chunk_bytes,
                        num_epochs=flow_schedule.num_epochs)
