"""The schedule conformance engine: a strict replay oracle for every producer.

The paper's central claim is that the optimizer's objective *is* the
collective's finish time — which is only true if the schedule it emits is
*executable* under the model of §3: per-epoch link capacities (with the
Appendix F occupancy windows on links slower than the epoch grid), α–β
transfer costs, zero-buffer switches that copy or merely forward (§3.1),
bounded GPU relay buffers (Appendix B), and the store-and-forward ablation
(Figure 9). This module replays a schedule against that model — written from
the paper, independently of any producer's code — and returns a structured
:class:`ConformanceReport` instead of a bare pass/fail: every violation
carries its epoch/link/commodity provenance, and the report includes the
replayed α–β finish time and per-link utilization so callers can compare the
replay against the solver's claimed objective.

Three entry points:

* :func:`check_schedule` — integral :class:`~repro.core.schedule.Schedule`
  (MILP, A*, baselines, MSCCL round-trips, repair residuals);
* :func:`check_flow` — fractional :class:`~repro.core.schedule.FlowSchedule`
  (LP, POP), checked against the LP's conservation/causality equalities;
* :func:`check_result` — a whole :class:`~repro.core.solve.SynthesisResult`,
  dispatching on the schedule kind and comparing the replayed finish time
  with the producer's claimed objective within model tolerance.

The cross-producer randomized harness (:mod:`repro.simulate.harness`) sweeps
every producer in the repo through this oracle; ``teccl verify`` and the
planner service expose the same engine to operators, and :func:`vetted`
is the one trust gate every solver shortcut's answer passes.

:func:`check_schedule` is one pass over the sorted sends, then one over
each link's loads and each demanded triple; its multi-pass predecessor is
``tests/schedule_oracle.py``. :func:`check_flow` is one array replay over
the columns the schedule holds (:attr:`FlowSchedule.arrays
<repro.core.schedule.FlowSchedule.arrays>`, its per-(link, epoch) loads
included): every per-link fact — Δ, per-epoch capacity, α, β — comes from
one link table, supply and sinks from ``Demand.chunk_rows``, and each
invariant family is a NumPy kernel over them. Its per-entry predecessor is
``tests/flow_oracle.py``. Both replays must return reports equal to their
references, float bits included. For flows that holds because every sum
the walk took in order is taken in the same order: ``np.bincount`` and a
row-wise ``cumsum`` add sequentially (``np.sum`` is pairwise and is not
used); violations are emitted in the walk's order with its messages.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.collectives.demand import Demand
from repro.core.config import SwitchModel, TecclConfig
from repro.core.epochs import EpochPlan
from repro.core.schedule import (FlowSchedule, LinkTable,
                                 Schedule, distinct,
                                 positions, run_lengths, run_starts)
from repro.errors import ScheduleError
from repro.obs.metrics import get_registry as _default_registry
from repro.obs.trace import event as _obs_event
from repro.obs.trace import span as _obs_span
from repro.topology.topology import Topology

_EPS = 1e-9

#: Relative tolerance for replayed-vs-claimed finish-time agreement. The
#: replay recomputes arrivals from the same α–β inputs the solver used, so
#: agreement is float-roundoff tight; anything beyond this is a real
#: disagreement between the objective and the executable schedule.
FINISH_RTOL = 1e-6

#: Absolute tolerance on fractional chunk amounts (LP flows are ~1.0-scaled
#: and solved to 1e-7-ish feasibility by the backend).
FLOW_ATOL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One broken model invariant, with provenance.

    Attributes:
        kind: invariant family — ``"link"`` (send on a nonexistent link),
            ``"horizon"`` (activity beyond the epoch plan), ``"availability"``
            (transmit before holding), ``"relay"`` (store-and-forward
            ablation broken), ``"switch"`` (forward without a matching
            arrival, or duplication on a no-copy switch), ``"stranded"``
            (chunk enters a switch and never leaves), ``"capacity"``,
            ``"buffer"`` (relay-buffer budget exceeded), ``"conservation"``
            (flow mass appears from nowhere), ``"delivery"`` (demand unmet),
            ``"finish"`` (replayed finish disagrees with the claimed
            objective).
        message: human-readable description.
        epoch: the epoch (or pool index, for flows) where it happened.
        link: the (src, dst) pair involved, when link-local.
        commodity: the (source, chunk) pair — or aggregated source id —
            involved, when commodity-local.
        node: the node involved, when node-local.
    """

    kind: str
    message: str
    epoch: int | None = None
    link: tuple[int, int] | None = None
    commodity: tuple[int, int] | int | None = None
    node: int | None = None

    def __str__(self) -> str:
        return self.message


@dataclass
class ConformanceReport:
    """The outcome of one conformance replay.

    Attributes:
        violations: every broken invariant (empty means conformant).
        finish_time: the replayed α–β finish — the latest demanded delivery
            for integral schedules, the latest serialized per-link arrival
            for flows. Computed by the replay, never copied from the
            producer.
        claimed_finish_time: the producer's objective value, when supplied.
        finish_epoch: last epoch with any activity (−1 when empty).
        delivered: per demanded triple, the α–β delivery time (integral) —
            or per ``(commodity, destination)``, the amount read (flows).
        utilization: per link, busy fraction over the replayed duration.
        num_sends: integral sends replayed (0 for flows).
        total_flow: fractional chunk mass replayed (0.0 for integral).
        total_bytes: bytes placed on the wire.
    """

    violations: list[Violation] = field(default_factory=list)
    finish_time: float = 0.0
    claimed_finish_time: float | None = None
    finish_epoch: int = -1
    delivered: dict = field(default_factory=dict)
    utilization: dict[tuple[int, int], float] = field(default_factory=dict)
    num_sends: int = 0
    total_flow: float = 0.0
    total_bytes: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def finish_delta(self) -> float | None:
        """Replayed minus claimed finish time (``None`` when no claim)."""
        if self.claimed_finish_time is None:
            return None
        return self.finish_time - self.claimed_finish_time

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out

    def raise_on_violation(self) -> "ConformanceReport":
        if not self.ok:
            raise ScheduleError("; ".join(
                str(v) for v in self.violations[:5]))
        return self

    def to_dict(self) -> dict:
        """JSON-ready summary (violations keep their provenance fields)."""
        return {
            "ok": self.ok,
            "finish_time": self.finish_time,
            "claimed_finish_time": self.claimed_finish_time,
            "finish_delta": self.finish_delta,
            "finish_epoch": self.finish_epoch,
            "num_sends": self.num_sends,
            "total_flow": self.total_flow,
            "total_bytes": self.total_bytes,
            "violation_counts": self.counts_by_kind(),
            "violations": [
                {"kind": v.kind, "message": v.message, "epoch": v.epoch,
                 "link": list(v.link) if v.link else None,
                 "commodity": (list(v.commodity)
                               if isinstance(v.commodity, tuple)
                               else v.commodity),
                 "node": v.node}
                for v in self.violations],
            "utilization": {f"{i}->{j}": u
                            for (i, j), u in sorted(self.utilization.items())},
        }


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _finish_compare(report: ConformanceReport, rtol: float) -> None:
    claimed = report.claimed_finish_time
    if claimed is None:
        return
    tol = rtol * max(abs(claimed), abs(report.finish_time)) + 1e-12
    if abs(report.finish_time - claimed) > tol:
        report.violations.append(Violation(
            kind="finish",
            message=(f"replayed finish {report.finish_time:.9g}s disagrees "
                     f"with the claimed objective {claimed:.9g}s "
                     f"(delta {report.finish_time - claimed:+.3g}s)")))


# ----------------------------------------------------------------------
# integral schedules
# ----------------------------------------------------------------------
def check_schedule(schedule: Schedule, topology: Topology, demand: Demand,
                   plan: EpochPlan, *, config: TecclConfig | None = None,
                   strict_switches: bool = True,
                   claimed_finish_time: float | None = None,
                   finish_rtol: float = FINISH_RTOL) -> ConformanceReport:
    """Replay an integral schedule against the paper's execution model.

    Args:
        config: supplies the model variant the schedule was produced under —
            switch copy semantics, the store-and-forward ablation, the
            relay-buffer budget, and any time-varying capacity hook.
            ``None`` replays under the paper's defaults (copy switches,
            store-and-forward on, unbounded buffers).
        strict_switches: additionally require that every chunk entering a
            switch leaves in the very next epoch (zero-buffer semantics);
            disable for baselines that intentionally buffer at switches.
        claimed_finish_time: the producer's objective; when given, the
            replayed finish must agree within ``finish_rtol`` or a
            ``"finish"`` violation is reported.
    """
    with _obs_span("conformance.check", kind="schedule",
                   sends=schedule.num_sends) as sp:
        report = _replay_schedule(schedule, topology, demand, plan, config,
                                  strict_switches)
        report.claimed_finish_time = claimed_finish_time
        _finish_compare(report, finish_rtol)
        sp.set_attr(ok=report.ok, violations=len(report.violations))
        return report


_SEND_ROW = attrgetter("epoch", "source", "chunk", "src", "dst")


def _replay_schedule(schedule: Schedule, topology: Topology,
                     demand: Demand, plan: EpochPlan,
                     config: TecclConfig | None,
                     strict_switches: bool) -> ConformanceReport:
    """One pass over the sends in sorted order, then one over each link's
    loads and each demanded triple. Arrivals land strictly after their
    send epoch, so every provider is replayed before its consumers.
    Violations are reported by family — link and horizon, then
    availability / relay / switch, stranded, capacity, buffer, delivery —
    and within a family in the order the pass meets them."""
    copy_switches = (config is None
                     or config.switch_model is not SwitchModel.NO_COPY)
    store_and_forward = config is None or config.store_and_forward
    buffer_limit = None if config is None else config.buffer_limit_chunks
    links, switches = topology.links, topology.switches
    horizon, tau = plan.num_epochs, plan.tau
    rows = sorted(map(_SEND_ROW, schedule.sends))
    report = ConformanceReport(num_sends=len(rows),
                               total_bytes=schedule.total_bytes(),
                               finish_epoch=rows[-1][0] if rows else -1)
    placed: list[Violation] = []   # link and horizon
    held: list[Violation] = []     # availability, relay, switch

    keys = demand.chunk_rows[0]
    # (source, chunk, gpu) -> earliest buffer epoch the chunk is held
    available = {(s, c, s): 0 for s, c in keys}
    # (source, chunk, node) -> {buffer epoch: arrival count}
    arrivals: dict[tuple[int, int, int], dict[int, int]] = {}
    # (source, chunk, switch, epoch) -> outgoing send count (no-copy check)
    switch_out: dict[tuple[int, int, int, int], int] = {}
    # (source, chunk, switch) -> epochs it forwards at
    forwarded: dict[tuple[int, int, int], set[int]] = {}
    # (source, chunk, relay) -> send epochs, for the buffer budget
    relayed: dict[tuple[int, int, int], list[int]] = {}
    # link -> {epoch: sends}, links in the order they are first used
    loads: dict[tuple[int, int], dict[int, int]] = {}
    # (source, chunk, node) -> earliest α–β arrival
    first_arrival: dict[tuple[int, int, int], float] = {}
    # link -> (Δ + 1, α + β·S, whether the receiver is a switch)
    hops: dict[tuple[int, int], tuple[int, float, bool]] = {}

    for k, s, c, i, j in rows:
        link = (i, j)
        hop = hops.get(link)
        if hop is None:
            if link not in links:
                placed.append(Violation(
                    kind="link", epoch=k, link=link, commodity=(s, c),
                    message=f"send on nonexistent link ({i},{j})"))
                continue
            hop = hops[link] = (plan.arrival_offset(i, j) + 1,
                                links[link].transfer_time(plan.chunk_bytes),
                                j in switches)
        if k >= horizon:
            placed.append(Violation(
                kind="horizon", epoch=k, link=link, commodity=(s, c),
                message=(f"send at epoch {k} beyond the plan horizon "
                         f"K={horizon}")))
        key = (s, c, i)
        if i in switches:
            arrived_here = arrivals.get(key, {})
            if k not in arrived_here:
                held.append(Violation(
                    kind="switch", epoch=k, link=link, commodity=(s, c),
                    node=i,
                    message=(f"switch {i} forwards chunk ({s},{c}) at "
                             f"epoch {k} without an arrival in the "
                             "previous epoch")))
            elif not copy_switches:
                out_key = (s, c, i, k)
                sent = switch_out[out_key] = switch_out.get(out_key, 0) + 1
                if sent > arrived_here[k]:
                    held.append(Violation(
                        kind="switch", epoch=k, link=link, commodity=(s, c),
                        node=i,
                        message=(f"no-copy switch {i} duplicates chunk "
                                 f"({s},{c}) at epoch {k} ({sent} sends "
                                 f"for {arrived_here[k]} arrivals)")))
            if strict_switches:
                forwarded.setdefault(key, set()).add(k)
        else:
            if not store_and_forward and i != s:
                # Figure 9 ablation: non-source GPUs relay on arrival, like
                # a switch — holding a chunk across epochs is disabled.
                if k not in arrivals.get(key, {}):
                    held.append(Violation(
                        kind="relay", epoch=k, link=link, commodity=(s, c),
                        node=i,
                        message=(f"store-and-forward is disabled but node "
                                 f"{i} sends chunk ({s},{c}) at epoch {k} "
                                 "without an arrival in the previous "
                                 "epoch")))
            else:
                have = available.get(key)
                if have is None or have > k:
                    held.append(Violation(
                        kind="availability", epoch=k, link=link,
                        commodity=(s, c), node=i,
                        message=(f"node {i} sends chunk ({s},{c}) at epoch "
                                 f"{k} before holding it (available at "
                                 f"{have})")))
            if buffer_limit is not None:
                relayed.setdefault(key, []).append(k)
        landing, transfer, to_switch = hop
        landing += k
        dst_key = (s, c, j)
        pools = arrivals.get(dst_key)
        if pools is None:
            pools = arrivals[dst_key] = {}
        pools[landing] = pools.get(landing, 0) + 1
        if not to_switch:
            current = available.get(dst_key)
            if current is None or landing < current:
                available[dst_key] = landing
        per_epoch = loads.get(link)
        if per_epoch is None:
            per_epoch = loads[link] = {}
        per_epoch[k] = per_epoch.get(k, 0) + 1
        t = k * tau + transfer
        current = first_arrival.get(dst_key)
        if current is None or t < current:
            first_arrival[dst_key] = t

    violations = report.violations
    violations += placed
    violations += held
    if strict_switches and switches:
        for (s, c, node), pools in arrivals.items():
            if node not in switches:
                continue
            left = forwarded.get((s, c, node), ())
            for epoch in sorted(pools):
                if epoch not in left:
                    violations.append(Violation(
                        kind="stranded", epoch=epoch, node=node,
                        commodity=(s, c),
                        message=(f"chunk ({s},{c}) stranded at switch "
                                 f"{node} (arrived for epoch {epoch}, "
                                 "never left)")))
    _capacity_windows(violations, loads, plan, config)
    if buffer_limit is not None:
        _buffer_occupancy(violations, relayed, arrivals, demand,
                          buffer_limit)

    # --- demand delivery and the replayed α–β finish --------------------
    finish = 0.0
    delivered = report.delivered
    for s, c in keys:
        for d in demand.destinations(s, c):
            key = (s, c, d)
            if key not in available:
                violations.append(Violation(
                    kind="delivery", commodity=(s, c), node=d,
                    message=f"demand unmet: chunk ({s},{c}) never "
                            f"reaches {d}"))
                continue
            t = delivered[key] = first_arrival.get(key, 0.0)
            if t > finish:
                finish = t
    report.finish_time = finish

    # --- utilization: busy time added one send at a time ----------------
    utilization = report.utilization
    for link, per_epoch in loads.items():
        step, busy = plan.chunk_bytes / links[link].capacity, 0.0
        for _ in range(sum(per_epoch.values())):
            busy += step
        utilization[link] = busy / finish if finish > 0 else 0.0
    return report


def _capacity_windows(violations: list, loads: dict, plan: EpochPlan,
                      config: TecclConfig | None) -> None:
    """Per link, ascending: every κ-epoch window (Appendix F) from the
    link's first busy epoch to its last against its chunk budget. With
    κ = 1 and no capacity hook only busy epochs can overflow."""
    hook = None if config is None else config.capacity_fn
    for link in sorted(loads):
        per_epoch = loads[link]
        kappa = plan.occupancy[link]
        cap = plan.cap_chunks[link]
        if kappa == 1 and hook is None:
            epochs = per_epoch
        else:
            busy = list(per_epoch)
            epochs = range(busy[0], busy[-1] + 1)
        used = 0
        for k in epochs:
            if hook is not None:
                cap = hook(*link, k) * plan.tau / plan.chunk_bytes
            if kappa == 1:
                used = per_epoch.get(k, 0)
                limit = math.floor(cap + _EPS)
            else:
                used += per_epoch.get(k, 0) - per_epoch.get(k - kappa, 0)
                limit = max(1, math.floor(kappa * cap + _EPS))
            if used > limit:
                violations.append(Violation(
                    kind="capacity", epoch=k, link=link,
                    message=(f"link ({link[0]},{link[1]}) carries {used} "
                             f"chunks in the window ending at epoch {k}, "
                             f"capacity {limit}")))


def _buffer_occupancy(violations: list, relayed: dict, arrivals: dict,
                      demand: Demand, limit: float) -> None:
    """Least-commitment relay-buffer replay against the Appendix B budget.

    A relay chunk must sit in the buffer from some arrival until each send
    that uses it; the minimal feasible occupancy for a (commodity, node)
    pair is the union over its sends of ``[latest arrival ≤ send epoch,
    send epoch]``. A schedule violates the budget only if even this minimal
    assignment exceeds it. Sources and demand destinations are exempt (the
    input/output buffers of §3.1 hold that data regardless). A send with
    no earlier arrival is an availability violation already reported.
    """
    occupancy: dict[int, dict[int, int]] = {}  # node -> epoch -> count
    for (s, c, node), epochs in relayed.items():
        if node == s or node in demand.destinations(s, c):
            continue
        pools = sorted(arrivals.get((s, c, node), ()))
        if not pools:
            continue
        covered: set[int] = set()
        for t in epochs:
            at = bisect_right(pools, t)
            if at:
                covered.update(range(pools[at - 1], t + 1))
        per_node = occupancy.setdefault(node, {})
        for k in covered:
            per_node[k] = per_node.get(k, 0) + 1
    budget = math.floor(limit + _EPS)
    for node in sorted(occupancy):
        for k in sorted(occupancy[node]):
            if occupancy[node][k] > budget:
                violations.append(Violation(
                    kind="buffer", epoch=k, node=node,
                    message=(f"node {node} needs {occupancy[node][k]} relay "
                             f"buffer slots at epoch {k}, budget "
                             f"{budget}")))


# ----------------------------------------------------------------------
# fractional (LP) schedules
# ----------------------------------------------------------------------
def check_flow(flow: FlowSchedule, topology: Topology, demand: Demand,
               plan: EpochPlan, *, config: TecclConfig | None = None,
               claimed_finish_time: float | None = None,
               atol: float = FLOW_ATOL,
               finish_rtol: float = FINISH_RTOL) -> ConformanceReport:
    """Replay a fractional schedule against the LP model of §4.1.

    Checks per-epoch link capacity (the LP has no occupancy windows — its
    fractional amounts are rate-limited per epoch directly), causality and
    mass conservation per commodity (consumption can never outrun arrivals
    plus the origin supply), zero-buffer switch forwarding, the relay-buffer
    budget, read legality, and full demand delivery within ``atol``.
    """
    with _obs_span("conformance.check", kind="flow",
                   flows=len(flow.flows)) as sp:
        report = _FlowReplay(flow, topology, demand, plan, config,
                             atol).report(claimed_finish_time, finish_rtol)
        sp.set_attr(ok=report.ok, violations=len(report.violations))
        return report


class _FlowReplay:
    """One :func:`check_flow` replay over the schedule's array view.

    Every event is normalised to a *pool index* p of one (commodity, node)
    *group*: a send at epoch e arrives at pool e + Δ + 1 of its receiver
    and consumes pool e of its sender; a read at epoch r consumes pool
    r + 1 (R[k] ≤ B[k+1] in the LP). A *slot* is one (group, pool) pair
    with an event; ``inflow`` / ``outflow`` hold each slot's arriving and
    consumed mass, added in the dicts' order (flows, then reads).
    """

    def __init__(self, flow: FlowSchedule, topology: Topology,
                 demand: Demand, plan: EpochPlan,
                 config: TecclConfig | None, atol: float) -> None:
        self.flow, self.topology, self.demand = flow, topology, demand
        self.plan, self.config, self.atol = plan, config, atol
        self.view = flow.arrays
        self.keys = self.view.commodities
        self.table = LinkTable(topology)
        self.violations: list[Violation] = []

    def report(self, claimed_finish_time: float | None,
               finish_rtol: float) -> ConformanceReport:
        flow, view = self.flow, self.view
        total = sum(flow.flows.values())
        report = ConformanceReport(
            violations=self.violations,
            claimed_finish_time=claimed_finish_time, total_flow=total,
            total_bytes=total * flow.chunk_bytes,
            finish_epoch=view.epochs[-1] if view.epochs else -1)
        link = self.table.rows(view.links)
        sent = self._entries(link[view.flow_link])
        # the schedule's per-(link, epoch) loads, on the links that exist
        loads = (link[view.load_link], view.load_epoch, view.load_amount)
        if (loads[0] < 0).any():
            loads = tuple(column[loads[0] >= 0] for column in loads)
        self._capacity(*loads)
        report.delivered = self._pools(sent)
        self._never_moved()
        report.finish_time, report.utilization = self._finish(*loads)
        _finish_compare(report, finish_rtol)
        return report

    # -- per flow: sign, link, horizon ----------------------------------
    def _entries(self, link: np.ndarray) -> "_Sent":
        """Flag negative, off-fabric and late flows, in flow order, and
        return the flows on real links; ``link`` is each flow's row."""
        view, plan, atol = self.view, self.plan, self.atol
        epoch = view.flow_epoch
        offset = self._offsets(link)
        landing = epoch + offset[link] + 1
        # every pool index lies in [pools.start, pools.stop)
        reach = offset.tolist()
        self.pools = range(view.epochs.start + min(0, min(reach, default=0)
                                                   + 1),
                           view.epochs.stop + max(0, max(reach, default=0)
                                                  + 1))
        K = plan.num_epochs
        sent = _Sent(view.flow_q, view.flow_src, view.flow_dst, epoch,
                     landing, view.flow_amount, link)
        late = (epoch >= K) | (landing > K)
        flagged = ((view.flow_amount < -atol) | (link < 0) | late
                   ).nonzero()[0]
        if not len(flagged):
            return sent
        items = list(self.flow.flows.items())
        for n in flagged.tolist():
            (q, i, j, k), amount = items[n]
            if amount < -atol:
                self.violations.append(Violation(
                    kind="conservation", epoch=k, link=(i, j), commodity=q,
                    message=f"negative flow {amount:.3g} on ({i},{j}) at "
                            f"epoch {k}"))
            if link[n] < 0:
                self.violations.append(Violation(
                    kind="link", epoch=k, link=(i, j), commodity=q,
                    message=f"flow on nonexistent link ({i},{j})"))
            elif late[n]:
                self.violations.append(Violation(
                    kind="horizon", epoch=k, link=(i, j), commodity=q,
                    message=(f"flow sent at epoch {k} on ({i},{j}) cannot "
                             f"land within the horizon K={K}")))
        real = link >= 0
        return sent if real.all() else _Sent(*(column[real]
                                               for column in sent))

    def _offsets(self, link: np.ndarray) -> np.ndarray:
        """Δ per link row (and the plan's per-epoch chunk budget in
        ``cap_chunks``); a link the plan does not price is an error only
        if a flow takes it."""
        plan, links = self.plan, self.table.links
        occupancy, offset, self.cap_chunks = self.table.plan_columns(plan)
        if not occupancy.all():
            for row in np.intersect1d(link, (occupancy == 0).nonzero()[0]):
                plan.arrival_offset(*links[row])  # raises KeyError
        return offset

    # -- per (link, epoch): capacity ------------------------------------
    def _capacity(self, link, epoch, load) -> None:
        """Per-(link, epoch) load against the budget, reported in link and
        epoch order."""
        config, plan, links = self.config, self.plan, self.table.links
        if config is not None and config.capacity_fn is not None:
            cap = np.array([config.capacity_fn(*links[row], k) * plan.tau
                            / plan.chunk_bytes
                            for row, k in zip(link.tolist(), epoch.tolist())])
        else:
            cap = self.cap_chunks[link]
        over = (load > cap + self.atol).nonzero()[0]
        for n in over[np.lexsort((epoch[over], link[over]))].tolist():
            (i, j), k = links[link[n]], int(epoch[n])
            self.violations.append(Violation(
                kind="capacity", epoch=k, link=(i, j),
                message=(f"link ({i},{j}) carries {load[n]:.6g} chunks at "
                         f"epoch {k}, capacity {cap[n]:.6g}")))

    # -- per (commodity, node) group -------------------------------------
    def _pools(self, sent: "_Sent") -> dict:
        """Group every event by (commodity, node) and pool, then check, in
        this order: reads nobody demanded, prefix conservation, switch
        forwarding, the relay buffer; returns ``delivered``."""
        view = self.view
        stride = 1 + max(self.topology.num_nodes - 1,
                         int(self.demand.chunk_rows[2].max(initial=-1)),
                         int(view.read_dst.max(initial=-1)))
        pairs = self._demanded(stride)
        q = sent.q * stride
        group = np.concatenate((q + sent.dst, q + sent.src,
                                view.read_q * stride + view.read_dst))
        pool = np.concatenate((sent.landing, sent.epoch,
                               view.read_epoch + 1))
        low, span = self.pools.start, max(1, len(self.pools))
        slots, inverse = distinct(group * span + (pool - low))
        flows = len(sent.amount)
        self.inflow = np.bincount(inverse[:flows], sent.amount, len(slots))
        self.outflow = np.bincount(
            inverse[flows:],
            np.concatenate((sent.amount, view.read_amount)), len(slots))
        slot_group, self.slot_pool = np.divmod(slots, span)
        self.slot_pool += low
        self.starts = run_starts(slot_group)
        self.counts = run_lengths(self.starts, len(slots))
        self.slot_of = np.repeat(np.arange(len(self.starts)), self.counts)
        groups = slot_group[self.starts]
        self.group_q, self.group_node = np.divmod(groups, stride)
        event_group = self.slot_of[inverse]

        # reads of a commodity at a node that never demanded it
        pair_group = positions(groups, pairs.code)
        is_pair = np.zeros(len(groups) + 1, dtype=bool)
        is_pair[pair_group] = True     # −1 (never read) marks the spare
        read_group = event_group[2 * flows:]
        undemanded = (~is_pair[read_group]).nonzero()[0]
        if len(undemanded):
            reads = list(self.flow.reads)
            for n in undemanded.tolist():
                rq, d, k = reads[n]
                self.violations.append(Violation(
                    kind="delivery", epoch=k, commodity=rq, node=d,
                    message=(f"read of commodity {rq} at node {d} which "
                             "never demanded it")))

        switches = sorted(self.topology.switches)
        relay = np.bincount(event_group[flows:], minlength=len(groups)) > 0
        if switches:
            self.group_switch = positions(np.array(switches, dtype=np.int64),
                                          self.group_node) >= 0
            relay &= ~self.group_switch
        buffered = self._conservation(relay, pairs.supply)
        if switches:
            self._switches()
        if buffered is not None:
            self._buffers(*buffered)
        read = np.bincount(read_group, view.read_amount, len(groups))
        return self._delivery(pairs, pair_group, read)

    def _demanded(self, stride: int) -> "_Pairs":
        """What the LP was fed, read off ``Demand.chunk_rows``: an
        aggregated key carries every chunk of its source, a ``(source,
        chunk)`` key its own chunk. Supply per key, and every demanded
        ``(key, sink)`` with the amount wanted — keys in ``str`` order,
        sinks ascending: the report's order."""
        keys = self.keys
        chunk_keys, source, dests = self.demand.chunk_rows
        aggregated, per_chunk = {}, {}
        for n, q in enumerate(keys):
            (per_chunk if isinstance(q, tuple) else aggregated)[q] = n
        row, column = (dests >= 0).nonzero()
        sink = dests[row, column]
        # (key, sink) code of every demanded sink of every chunk a key
        # carries, one block per keying; -1 marks a chunk no key carries
        code = np.concatenate([
            np.fromiter(map(table.get, labels, repeat(-1)), np.int64,
                        len(labels))[row] * stride + sink
            for table, labels in ((aggregated, source.tolist()),
                                  (per_chunk, chunk_keys)) if table]
            or [sink[:0]])
        wanted = np.bincount(code[code >= 0], minlength=len(keys) * stride
                             ).reshape(len(keys), stride)
        supply = wanted.sum(axis=1).astype(float)
        order = sorted(range(len(keys)), key=lambda n: str(keys[n]))
        ranked = order != list(range(len(keys)))
        if ranked:
            wanted = wanted[order]
        pair_q, pair_d = wanted.nonzero()
        want = wanted[pair_q, pair_d].astype(float)
        if ranked:
            pair_q = np.array(order, dtype=np.int64)[pair_q]
        return _Pairs(q=pair_q, d=pair_d, code=pair_q * stride + pair_d,
                      want=want, supply=supply)

    def _group_label(self, g) -> str:
        return str((self.keys[self.group_q[g]], int(self.group_node[g])))

    def _conservation(self, relay: np.ndarray, supply: np.ndarray):
        """Prefix conservation at every consuming non-switch group
        (``relay``): the running balance — origin supply, plus arrivals,
        minus consumption, pool by pool — may never go below −atol. Under
        a relay-buffer budget, returns the implied buffer as ``(group,
        node, pool, mass, budget)`` for :meth:`_buffers`: the balance a
        non-origin group holds past a pool, until its next event."""
        keys, atol = self.keys, self.atol
        gq, gnode, slot_of = self.group_q, self.group_node, self.slot_of
        origin = np.fromiter((q[0] if isinstance(q, tuple) else q
                              for q in keys), np.int64, len(keys))
        group_supply = np.where(origin[gq] == gnode, supply[gq], 0.0)
        arrived = 2 * (np.arange(len(slot_of)) - self.starts[slot_of]) + 1
        consumed = arrived + 1
        # one row per group: supply, then +arrived / −consumed per pool;
        # a row-wise cumsum adds in exactly the loop's order
        steps = np.zeros((len(gq), 2 * int(self.counts.max(initial=0)) + 1))
        steps[:, 0] = group_supply
        steps[slot_of, arrived] = self.inflow
        steps[slot_of, consumed] = -self.outflow
        balance = steps.cumsum(axis=1)[slot_of, consumed]
        deficit = np.zeros(len(gq), dtype=bool)
        short = slot_of[balance < -atol]
        if len(short):
            deficit[short] = relay[short]
        limit = (None if self.config is None
                 else self.config.buffer_limit_chunks)

        # a group that goes into deficit re-anchors at zero after each
        # report: replay those (already failing) groups one event at a time
        K = self.plan.num_epochs
        held: list[tuple[int, int, int, float]] = []
        for g in sorted(deficit.nonzero()[0].tolist(),
                        key=self._group_label):
            node, commodity = int(gnode[g]), keys[gq[g]]
            held_from = float(group_supply[g])
            lo, hi = self.starts[g], self.starts[g] + self.counts[g]
            pools = self.slot_pool[lo:hi].tolist()
            running = held_from
            for idx, (p, landed, used) in enumerate(zip(
                    pools, self.inflow[lo:hi].tolist(),
                    self.outflow[lo:hi].tolist())):
                running += landed
                running -= used
                if running < -atol:
                    self.violations.append(Violation(
                        kind="conservation", epoch=p, commodity=commodity,
                        node=node,
                        message=(f"node {node} consumes {-running:.6g} more "
                                 f"of commodity {commodity} than has "
                                 f"arrived by pool index {p}")))
                    running = 0.0
                elif held_from == 0.0 and running > atol:
                    until = pools[idx + 1] if idx + 1 < len(pools) else p + 1
                    held.extend((g, node, k, running)
                                for k in range(p, min(until, K + 2)))
        if limit is None:
            return None

        # every other relay group: its balance at each pool, held until
        # its next event
        keep = ((relay & ~deficit & (group_supply == 0.0))[slot_of]
                & (balance > atol))
        pool = self.slot_pool
        last = np.append(slot_of[1:] != slot_of[:-1], True)
        until = np.where(last, pool + 1, np.append(pool[1:], 0))
        length = np.where(keep, np.maximum(np.minimum(until, K + 2) - pool,
                                           0), 0)
        each = np.repeat(np.arange(len(pool)), length)
        step = np.arange(len(each)) - np.repeat(length.cumsum() - length,
                                                length)
        columns = (slot_of[each], gnode[slot_of[each]], pool[each] + step,
                   balance[each])
        if held:
            columns = tuple(np.concatenate((values, np.array(added)))
                            for values, added in zip(columns, zip(*held)))
        return (*columns, limit)

    def _switches(self) -> None:
        """Zero-buffer switches: the LP's in(k) == out(k+1) equality (in
        pool-index terms both sides land on the same index p). Forwarding
        more than arrived is a causality break; forwarding less strands
        mass at a bufferless node — the fractional analogue of
        "stranded"."""
        atol, inflow, outflow = self.atol, self.inflow, self.outflow
        at_switch = self.group_switch[self.slot_of]
        over = at_switch & (outflow > inflow + atol)
        under = at_switch & ~over & (inflow > outflow + atol)
        bad = (over | under).nonzero()[0]
        for g in sorted(set(self.slot_of[bad].tolist()),
                        key=self._group_label):
            commodity = self.keys[self.group_q[g]]
            node = int(self.group_node[g])
            for s in bad[self.slot_of[bad] == g].tolist():
                p = int(self.slot_pool[s])
                landed, forwarded = inflow[s], outflow[s]
                if over[s]:
                    self.violations.append(Violation(
                        kind="switch", epoch=p, commodity=commodity,
                        node=node,
                        message=(f"switch {node} forwards {forwarded:.6g} "
                                 f"of commodity {commodity} at epoch {p} "
                                 f"but only {landed:.6g} arrived for that "
                                 "epoch")))
                else:
                    self.violations.append(Violation(
                        kind="stranded", epoch=p, commodity=commodity,
                        node=node,
                        message=(f"{landed - forwarded:.6g} of commodity "
                                 f"{commodity} stranded at switch {node} "
                                 f"(arrived for epoch {p}, never "
                                 "forwarded)")))

    def _buffers(self, group, node, pool, mass, limit: float) -> None:
        """Implied relay-buffer mass per (node, pool) against the budget;
        groups add into a (node, pool) in ``str`` order of the group."""
        groups = sorted(set(group.tolist()), key=self._group_label)
        rank = np.zeros(len(self.counts), dtype=np.int64)
        rank[groups] = np.arange(len(groups))
        order = np.argsort(rank[group], kind="stable")
        low = int(pool.min(initial=0))
        span = int(pool.max(initial=0)) - low + 1
        bins, inverse = distinct((node * span + pool - low)[order])
        total = np.bincount(inverse, mass[order], len(bins))
        for n in (total > limit + self.atol).nonzero()[0].tolist():
            at, p = divmod(int(bins[n]), span)
            self.violations.append(Violation(
                kind="buffer", epoch=p + low, node=at,
                message=(f"node {at} buffers {total[n]:.6g} chunks at pool "
                         f"index {p + low}, budget {limit:g}")))

    # -- delivery and commodities that never move -----------------------
    def _delivery(self, pairs: "_Pairs", pair_group: np.ndarray,
                  read: np.ndarray) -> dict:
        """Per demanded (commodity, sink), the amount read, in order."""
        got = np.where(pair_group >= 0, read[pair_group], 0.0)
        keys = self.keys
        commodity = list(map(keys.__getitem__, pairs.q.tolist()))
        sink = pairs.d.tolist()
        amount = got.tolist()
        for n in (got < pairs.want - self.atol).nonzero()[0].tolist():
            q, d = commodity[n], sink[n]
            self.violations.append(Violation(
                kind="delivery", commodity=q, node=d,
                message=(f"demand unmet: sink {d} read {amount[n]:.6g} of "
                         f"{pairs.want[n]:g} demanded of commodity {q}")))
        return dict(zip(zip(commodity, sink), amount))

    def _never_moved(self) -> None:
        demand, keys = self.demand, self.keys
        chunk_keys, source, _ = demand.chunk_rows
        if demand.benefits_from_copy() or any(
                isinstance(k, tuple) for k in keys) or not keys:
            demanded_keys = set(chunk_keys)
        else:
            demanded_keys = set(source.tolist())
        for q in sorted(demanded_keys - set(keys), key=str):
            self.violations.append(Violation(
                kind="delivery", commodity=q,
                message=f"demand unmet: commodity {q} never moves"))

    # -- replayed finish: serialized per-link α–β arrival ---------------
    def _finish(self, link, epoch, load):
        table, plan = self.table, self.plan
        finish = table.finish(link, epoch, load, plan.tau, plan.chunk_bytes)
        # busy time per link, added in the order each (link, epoch) load
        # first appears among the flows
        busy = np.bincount(link, load * plan.chunk_bytes
                           / table.capacity[link], len(table.links)).tolist()
        seen = dict.fromkeys(link.tolist())
        if finish > 0:
            return finish, {table.links[row]: busy[row] / finish
                            for row in seen}
        return finish, {table.links[row]: 0.0 for row in seen}


class _Pairs(NamedTuple):
    """Every demanded ``(commodity, sink)`` in report order, as columns,
    and the supply per commodity key."""

    q: np.ndarray
    d: np.ndarray
    code: np.ndarray
    want: np.ndarray
    supply: np.ndarray


class _Sent(NamedTuple):
    """The flows on real links, as columns."""

    q: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    epoch: np.ndarray
    landing: np.ndarray
    amount: np.ndarray
    link: np.ndarray


# ----------------------------------------------------------------------
# synthesis results, and the trust gate every solver shortcut answers by
# ----------------------------------------------------------------------
def check_result(result, *, topology: Topology | None = None,
                 demand: Demand | None = None,
                 config: TecclConfig | None = None,
                 strict_switches: bool = True,
                 compare_finish: bool = True,
                 finish_rtol: float = FINISH_RTOL) -> ConformanceReport:
    """Conformance-check a :class:`~repro.core.solve.SynthesisResult`.

    Uses the topology/demand the schedule is expressed over (the
    hyper-edge-transformed fabric when the Appendix C transform ran) and
    the synthesis config's model-variant flags, all of which the result
    carries; pass ``topology``/``demand``/``config`` explicitly only to
    override. With ``compare_finish`` the replayed finish must agree with
    ``result.finish_time`` within ``finish_rtol``.
    """
    topo = topology if topology is not None else result.topology_used
    dem = demand if demand is not None else result.demand_used
    if config is None:
        config = result.config
    if topo is None or dem is None:
        raise ScheduleError(
            "result carries no topology/demand; pass them explicitly")
    claimed = result.finish_time if compare_finish else None
    if isinstance(result.schedule, FlowSchedule):
        return check_flow(result.schedule, topo, dem, result.plan,
                          config=config, claimed_finish_time=claimed,
                          finish_rtol=finish_rtol)
    return check_schedule(result.schedule, topo, dem, result.plan,
                          config=config, strict_switches=strict_switches,
                          claimed_finish_time=claimed,
                          finish_rtol=finish_rtol)


def vetted(shortcut: str, outcome, replay, fallback=None):
    """``outcome`` if its replay is clean, else the slow path's answer.

    ``replay(outcome, simulate)`` checks ``outcome`` with a check of the
    :mod:`repro.simulate` package, handed over at call time so that a
    patched check is the one that runs. A refused answer is counted
    (:func:`count_fallback`) and answered by ``fallback()`` — or, with no
    slower path, raised as :class:`ScheduleError`. An answer with a
    solver ``result`` says in its stats which way it went:
    ``<shortcut>_conformant`` or ``<shortcut>_fallback: "conformance"``.
    """
    import repro.simulate as simulate

    report = replay(outcome, simulate)
    if report.ok:
        answer, key, value = outcome, "conformant", True
    else:
        count_fallback(shortcut, "conformance",
                       violations=len(report.violations))
        if fallback is None:
            report.raise_on_violation()
        answer, key, value = fallback(), "fallback", "conformance"
    result = getattr(answer, "result", None)
    if result is not None:
        result.stats[f"{shortcut}_{key}"] = value
    return answer


def count_fallback(shortcut: str, reason: str, **fields) -> None:
    """Count and emit one ``<shortcut>.fallback``: the only writer of
    ``<shortcut>_fallbacks_total``, so the counter and the events agree."""
    _default_registry().counter(f"{shortcut}_fallbacks_total",
                                "Shortcut answers taken the slow way").inc()
    _obs_event(f"{shortcut}.fallback", reason=reason, **fields)


def replay_of(check: str, topology: Topology, demand: Demand,
              config: TecclConfig | None):
    """The gate's ``replay`` for an outcome with a ``schedule`` and a
    ``plan``: ``repro.simulate.<check>`` against the instance it answers."""
    return lambda outcome, simulate: getattr(simulate, check)(
        outcome.schedule, topology, demand, outcome.plan, config=config)
