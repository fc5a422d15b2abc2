"""The multi-pass integral-schedule replay, kept as a test oracle.

``repro.simulate.conformance.check_schedule`` was once this: a walk over
the sorted sends per invariant family, a per-link rescan of every
``(link, epoch)`` load for the capacity windows, and a scan of every
arrival pool per send for the relay-buffer budget. It is now one linear
pass, and must return an equal report — the same violations in the same
order with the same messages, the same ``delivered`` and ``utilization``
dicts, and a bit-identical ``finish_time`` — on every input;
``tests/test_schedule_oracle.py`` holds it to that.
"""

import math

from repro.collectives.demand import Demand
from repro.core.config import SwitchModel, TecclConfig
from repro.core.epochs import EpochPlan
from repro.core.schedule import Schedule
from repro.simulate.conformance import (FINISH_RTOL, ConformanceReport,
                                        Violation, _finish_compare)
from repro.topology.topology import Topology

_EPS = 1e-9


def _epoch_capacity(plan: EpochPlan, config: TecclConfig | None,
                    i: int, j: int, k: int) -> float:
    """Per-epoch chunk budget, honouring a time-varying capacity hook."""
    if config is not None and config.capacity_fn is not None:
        return config.capacity_fn(i, j, k) * plan.tau / plan.chunk_bytes
    return plan.cap_chunks[(i, j)]


def reference_check_schedule(schedule: Schedule, topology: Topology,
                             demand: Demand, plan: EpochPlan, *,
                             config: TecclConfig | None = None,
                             strict_switches: bool = True,
                             claimed_finish_time: float | None = None,
                             finish_rtol: float = FINISH_RTOL,
                             ) -> ConformanceReport:
    """The multi-pass replay ``check_schedule`` ran before it was one
    linear pass; same arguments, same report."""
    report = ConformanceReport(claimed_finish_time=claimed_finish_time,
                               num_sends=schedule.num_sends,
                               total_bytes=schedule.total_bytes(),
                               finish_epoch=schedule.finish_epoch)
    violations = report.violations
    copy_switches = (config is None
                     or config.switch_model is not SwitchModel.NO_COPY)
    store_and_forward = config is None or config.store_and_forward
    buffer_limit = None if config is None else config.buffer_limit_chunks

    sends_sorted = sorted(schedule.sends)
    valid = []
    for send in sends_sorted:
        if not topology.has_link(send.src, send.dst):
            violations.append(Violation(
                kind="link", epoch=send.epoch, link=send.link,
                commodity=send.commodity,
                message=f"send on nonexistent link ({send.src},{send.dst})"))
            continue
        if send.epoch >= plan.num_epochs:
            violations.append(Violation(
                kind="horizon", epoch=send.epoch, link=send.link,
                commodity=send.commodity,
                message=(f"send at epoch {send.epoch} beyond the plan "
                         f"horizon K={plan.num_epochs}")))
        valid.append(send)

    # --- availability, relay and switch semantics ----------------------
    # One ordered pass suffices: arrivals land strictly after their send
    # epoch, so every provider is seen before its consumers.
    # (source, chunk, gpu) -> earliest buffer epoch the chunk is held
    available: dict[tuple[int, int, int], int] = {}
    for s, c in demand.commodities():
        available[(s, c, s)] = 0
    # (source, chunk, node) -> {buffer epoch: arrival count}
    arrivals: dict[tuple[int, int, int], dict[int, int]] = {}
    # (source, chunk, switch, epoch) -> outgoing send count (no-copy check)
    switch_out: dict[tuple[int, int, int, int], int] = {}

    for send in valid:
        key = (send.source, send.chunk, send.src)
        arrived_here = arrivals.get(key, {})
        if topology.is_switch(send.src):
            if send.epoch not in arrived_here:
                violations.append(Violation(
                    kind="switch", epoch=send.epoch, link=send.link,
                    commodity=send.commodity, node=send.src,
                    message=(f"switch {send.src} forwards chunk "
                             f"({send.source},{send.chunk}) at epoch "
                             f"{send.epoch} without an arrival in the "
                             "previous epoch")))
            elif not copy_switches:
                out_key = (send.source, send.chunk, send.src, send.epoch)
                switch_out[out_key] = switch_out.get(out_key, 0) + 1
                if switch_out[out_key] > arrived_here[send.epoch]:
                    violations.append(Violation(
                        kind="switch", epoch=send.epoch, link=send.link,
                        commodity=send.commodity, node=send.src,
                        message=(f"no-copy switch {send.src} duplicates "
                                 f"chunk ({send.source},{send.chunk}) at "
                                 f"epoch {send.epoch} "
                                 f"({switch_out[out_key]} sends for "
                                 f"{arrived_here[send.epoch]} arrivals)")))
        elif not store_and_forward and send.src != send.source:
            # Figure 9 ablation: non-source GPUs relay on arrival, like a
            # switch — holding a chunk across epochs is the disabled feature.
            if send.epoch not in arrived_here:
                violations.append(Violation(
                    kind="relay", epoch=send.epoch, link=send.link,
                    commodity=send.commodity, node=send.src,
                    message=(f"store-and-forward is disabled but node "
                             f"{send.src} sends chunk ({send.source},"
                             f"{send.chunk}) at epoch {send.epoch} without "
                             "an arrival in the previous epoch")))
        else:
            have = available.get(key)
            if have is None or have > send.epoch:
                violations.append(Violation(
                    kind="availability", epoch=send.epoch, link=send.link,
                    commodity=send.commodity, node=send.src,
                    message=(f"node {send.src} sends chunk ({send.source},"
                             f"{send.chunk}) at epoch {send.epoch} before "
                             f"holding it (available at {have})")))
        buffer_epoch = send.epoch + plan.arrival_offset(send.src, send.dst) + 1
        dst_key = (send.source, send.chunk, send.dst)
        arrivals.setdefault(dst_key, {})
        arrivals[dst_key][buffer_epoch] = \
            arrivals[dst_key].get(buffer_epoch, 0) + 1
        if not topology.is_switch(send.dst):
            current = available.get(dst_key)
            if current is None or buffer_epoch < current:
                available[dst_key] = buffer_epoch

    if strict_switches:
        out_epochs: dict[tuple[int, int, int], set[int]] = {}
        for send in valid:
            if topology.is_switch(send.src):
                out_epochs.setdefault(
                    (send.source, send.chunk, send.src), set()).add(send.epoch)
        for (s, c, node), pools in arrivals.items():
            if not topology.is_switch(node):
                continue
            left = out_epochs.get((s, c, node), set())
            for epoch in sorted(pools):
                if epoch not in left:
                    violations.append(Violation(
                        kind="stranded", epoch=epoch, node=node,
                        commodity=(s, c),
                        message=(f"chunk ({s},{c}) stranded at switch "
                                 f"{node} (arrived for epoch {epoch}, "
                                 "never left)")))

    # --- per-epoch link capacity (Appendix F windows) -------------------
    load: dict[tuple[int, int, int], int] = {}
    for send in valid:
        load[(send.src, send.dst, send.epoch)] = load.get(
            (send.src, send.dst, send.epoch), 0) + 1
    for (i, j) in sorted({(a, b) for (a, b, _) in load}):
        kappa = plan.occupancy[(i, j)]
        epochs = [k for (a, b, k) in load if (a, b) == (i, j)]
        for k in range(min(epochs), max(epochs) + 1):
            cap = _epoch_capacity(plan, config, i, j, k)
            if kappa == 1:
                used = load.get((i, j, k), 0)
                limit = math.floor(cap + _EPS)
            else:
                used = sum(load.get((i, j, kk), 0)
                           for kk in range(max(0, k - kappa + 1), k + 1))
                limit = max(1, math.floor(kappa * cap + _EPS))
            if used > limit:
                violations.append(Violation(
                    kind="capacity", epoch=k, link=(i, j),
                    message=(f"link ({i},{j}) carries {used} chunks in the "
                             f"window ending at epoch {k}, capacity "
                             f"{limit}")))

    # --- relay-buffer occupancy (Appendix B) ----------------------------
    if buffer_limit is not None:
        _check_buffer_occupancy(report, valid, topology, demand, plan,
                                arrivals, buffer_limit)

    # --- demand delivery and the replayed α–β finish --------------------
    finish = 0.0
    last_hop: dict[tuple[int, int, int], float] = {}
    for send in valid:
        t = send.epoch * plan.tau + topology.link(
            send.src, send.dst).transfer_time(plan.chunk_bytes)
        key = (send.source, send.chunk, send.dst)
        if key not in last_hop or t < last_hop[key]:
            last_hop[key] = t
    for s, c in demand.commodities():
        for d in demand.destinations(s, c):
            if (s, c, d) not in available:
                violations.append(Violation(
                    kind="delivery", commodity=(s, c), node=d,
                    message=f"demand unmet: chunk ({s},{c}) never "
                            f"reaches {d}"))
                continue
            t = last_hop.get((s, c, d), 0.0)
            report.delivered[(s, c, d)] = t
            finish = max(finish, t)
    report.finish_time = finish

    # --- utilization ----------------------------------------------------
    busy: dict[tuple[int, int], float] = {}
    for send in valid:
        link = topology.link(send.src, send.dst)
        busy[send.link] = busy.get(send.link, 0.0) \
            + plan.chunk_bytes / link.capacity
    if finish > 0:
        report.utilization = {key: b / finish for key, b in busy.items()}
    else:
        report.utilization = {key: 0.0 for key in busy}

    _finish_compare(report, finish_rtol)
    return report


def _check_buffer_occupancy(report: ConformanceReport, sends, topology,
                            demand: Demand, plan: EpochPlan,
                            arrivals: dict, limit: float) -> None:
    """Least-commitment relay-buffer replay against the Appendix B budget.

    A relay chunk must sit in the buffer from some arrival until each send
    that uses it; the minimal feasible occupancy for a (commodity, node)
    pair is the union over its sends of ``[latest arrival ≤ send epoch,
    send epoch]``. A schedule violates the budget only if even this minimal
    assignment exceeds it. Sources and demand destinations are exempt (the
    input/output buffers of §3.1 hold that data regardless).
    """
    sends_from: dict[tuple[int, int, int], list[int]] = {}
    for send in sends:
        if topology.is_switch(send.src):
            continue
        sends_from.setdefault(
            (send.source, send.chunk, send.src), []).append(send.epoch)
    occupancy: dict[int, dict[int, int]] = {}  # node -> epoch -> count
    for (s, c, node), epochs in sends_from.items():
        if node == s or node in demand.destinations(s, c):
            continue
        pools = sorted(arrivals.get((s, c, node), {}))
        if not pools:
            continue  # availability violation already recorded
        intervals: list[tuple[int, int]] = []
        for t in sorted(epochs):
            candidates = [p for p in pools if p <= t]
            if not candidates:
                continue  # availability violation already recorded
            intervals.append((candidates[-1], t))
        per_node = occupancy.setdefault(node, {})
        covered: set[int] = set()
        for lo, hi in intervals:
            covered.update(range(lo, hi + 1))
        for k in covered:
            per_node[k] = per_node.get(k, 0) + 1
    budget = math.floor(limit + _EPS)
    for node in sorted(occupancy):
        for k in sorted(occupancy[node]):
            if occupancy[node][k] > budget:
                report.violations.append(Violation(
                    kind="buffer", epoch=k, node=node,
                    message=(f"node {node} needs {occupancy[node][k]} relay "
                             f"buffer slots at epoch {k}, budget "
                             f"{budget}")))
