"""The general TE-CCL formulation (§3.1): a MILP with copy and buffering.

Decision variables (per commodity ``q = (source, chunk)``):

* ``F[q, i, j, k] ∈ {0,1}`` — chunk crosses link (i, j) starting at epoch k;
* ``B[q, n, k] ∈ {0,1}`` — chunk sits in GPU n's buffer at the start of k;
* ``R[q, d, k] ∈ [0,1]`` — chunk has been read by destination d by epoch k.

Integrality of ``F``/``B`` is what makes copy sound (Figure 3: fractional
chunks plus copy lets the model double-count halves). The flow-conservation-
with-copy constraint ``B[k] + arrivals(k) ≥ out(k+1)`` appears here in the
equivalent per-edge form ``F[·,k] ≤ B[·,k]`` because the buffer recurrence
already folds arrivals into the next buffer state (see DESIGN.md).

The builder also implements the paper's optional machinery: zero-buffer
switches with or without copy (§3.1), hyper-edge switches (Appendix C),
limited buffers (Appendix B), fastest-link epochs with windowed capacity
(Appendix F), time-varying capacity and per-triple priorities (§5), and a
reachability-based variable elimination that preserves optimality.

Like the §4.1 LP, the model is written once as a stem-level
:class:`~repro.core.template.ModelTemplate` and expanded by the same
:meth:`~repro.core.template.ModelTemplate.model`; the MILP's template
adds binary ``F``/``B`` columns, column bounds and per-epoch row uppers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.collectives.demand import Demand
from repro.core.columns import ColumnTable
from repro.core.config import SwitchModel, TecclConfig
from repro.core.epochs import (UNREACHABLE, EpochPlan, build_epoch_plan,
                               earliest_arrival_epochs,
                               first_feasible_rung, horizon_ladder)
from repro.core.postprocess import prune_sends
from repro.core.schedule import Schedule, Send
from repro.core.template import (FLOW, HOLD, READ, Draft, ModelTemplate,
                                 capacity_chunks, fabric, put, steps)
from repro.errors import InfeasibleError, ModelError
from repro.obs.trace import span as _obs_span
from repro.solver import Model, SolveResult, SolveStatus
from repro.topology.topology import Topology
from repro.topology.transforms import HyperEdgeGroup

_EPS = 1e-9

#: row-stem families, in model row order
_RECUR, _AVAIL, _SWITCH, _CAP, _DEST, _BUFFER, _HYPER = range(7)

Commodity = tuple[int, int]


@dataclass
class MilpProblem:
    """A built (not yet solved) instance; A* reuses this to add its terms.

    The ``*_vars`` tables map formulation keys to raw ``int`` solver column
    indices (what :meth:`repro.solver.SolveResult.value` and
    :meth:`repro.solver.Model.var` take); they read as dicts and are held
    as arrays (:class:`ColumnTable`).
    """

    model: Model
    plan: EpochPlan
    topology: Topology
    demand: Demand
    config: TecclConfig
    f_vars: ColumnTable = field(default_factory=ColumnTable)
    b_vars: ColumnTable = field(default_factory=ColumnTable)
    r_vars: ColumnTable = field(default_factory=ColumnTable)
    #: earliest buffer epoch, commodity (in ``demand.commodities()``
    #: order) by node
    earliest: np.ndarray | None = None


@dataclass
class MilpOutcome:
    """A solved instance: the pruned schedule plus solver diagnostics."""

    schedule: Schedule
    raw_schedule: Schedule
    result: SolveResult
    plan: EpochPlan
    delivered_epoch: dict[tuple[int, int, int], int]
    finish_time: float

    @property
    def solve_time(self) -> float:
        return self.result.solve_time


def _commodity_earliest(topology: Topology, plan: EpochPlan,
                        holders: list[list[tuple[int, int]]],
                        tighten: bool = True) -> np.ndarray:
    """Multi-source earliest arrival (in buffer epochs), commodity by node:
    per commodity, the least ``offset + earliest arrival`` over its
    ``(holder, offset)`` starts (:data:`UNREACHABLE` where none reaches).

    With ``tighten=False`` only reachability is kept (every reachable node
    gets bound 0) — the dense model of a naive implementation, used by the
    variable-elimination ablation bench.
    """
    dist = earliest_arrival_epochs(topology, plan)
    earliest = np.full((len(holders), topology.num_nodes), UNREACHABLE,
                       dtype=np.int64)
    starts = np.array([(q, h, offset) for q, pairs in enumerate(holders)
                       for h, offset in pairs], dtype=np.int64).reshape(-1, 3)
    np.minimum.at(earliest, starts[:, 0], dist[starts[:, 1]]
                  + starts[:, 2:3])
    earliest = np.minimum(earliest, UNREACHABLE)
    if not tighten:
        earliest[earliest < UNREACHABLE] = 0
    return earliest


class MilpBuilder:
    """Builds the §3.1 MILP for one (topology, demand, horizon) instance.

    :meth:`template` writes every constraint family once, over all
    commodities, with NumPy index arithmetic (a variable exists over one
    epoch interval per stem); :meth:`build` expands it into the model
    with the LP's code. ``tests/test_model_equivalence.py`` pins the
    compiled matrices.

    A* drives the same builder with per-round state: ``initial_holders``
    overrides where each commodity starts, ``injections`` models chunks that
    arrive mid-horizon from the previous round, and
    ``require_completion=False`` relaxes the final-epoch demand constraint.
    """

    def __init__(self, topology: Topology, demand: Demand,
                 config: TecclConfig, plan: EpochPlan, *,
                 initial_holders: dict[Commodity, set[int]] | None = None,
                 injections: dict[tuple[int, int, int, int], int] | None = None,
                 require_completion: bool = True,
                 allow_overhang: bool = False,
                 hyper_groups: list[HyperEdgeGroup] | None = None,
                 capacity_carry: dict[tuple[int, int, int], int] | None = None):
        demand.validate(topology)
        topology.validate()
        self.topology = topology
        self.demand = demand
        self.config = config
        self.plan = plan
        self.injections = injections or {}
        self.require_completion = require_completion
        self.allow_overhang = allow_overhang
        self.hyper_groups = hyper_groups or []
        #: transmissions still occupying a link from a *previous* horizon
        #: (A* rounds): key (i, j, negative virtual epoch), value chunk count
        self.capacity_carry = capacity_carry or {}
        if config.switch_model is SwitchModel.HYPER_EDGE and topology.switches:
            raise ModelError(
                "hyper-edge mode expects a transformed topology without "
                "switches; use repro.topology.to_hyper_edges first "
                "(the solve facade does this automatically)")
        if config.capacity_fn is not None:
            if any(k > 1 for k in plan.occupancy.values()):
                raise ModelError(
                    "time-varying capacity requires slowest-link epochs "
                    "(per-link occupancy must be 1)")
        if self.injections and (
                not config.store_and_forward
                or any(topology.is_switch(n)
                       for (_s, _c, n, _k) in self.injections)):
            raise ModelError(
                "injections land in GPU buffers: they need "
                "store_and_forward and a GPU target")
        self.commodities = demand.commodities()
        if initial_holders is None:
            self.initial_holders = {q: {q[0]} for q in self.commodities}
        else:
            self.initial_holders = initial_holders
        holders = [
            [(h, 0) for h in self.initial_holders.get(q, set())]
            + [(n, k) for (s, c, n, k) in self.injections if (s, c) == q]
            for q in self.commodities]
        #: earliest buffer epoch, commodity (in ``commodities`` order) by
        #: node
        self.earliest = _commodity_earliest(topology, plan, holders,
                                            tighten=config.tighten)

    # ------------------------------------------------------------------
    def build(self) -> MilpProblem:
        """The full model: :meth:`template` expanded over every row stem."""
        template = self.template()
        with _obs_span("milp.expand", cols=template.num_cols):
            model = template.model("teccl-milp")
        f_vars, b_vars, r_vars = template.tables()
        return MilpProblem(model=model, plan=self.plan,
                           topology=self.topology, demand=self.demand,
                           config=self.config, f_vars=f_vars, b_vars=b_vars,
                           r_vars=r_vars, earliest=self.earliest)

    def _precheck_horizon(self) -> None:
        if not self.require_completion:
            return
        K = self.plan.num_epochs
        for q, (s, c) in enumerate(self.commodities):
            for d in self.demand.destinations(s, c):
                earliest = int(self.earliest[q, d])
                if earliest >= UNREACHABLE:
                    raise ModelError(
                        f"destination {d} unreachable for commodity ({s},{c})")
                if earliest > K:
                    raise InfeasibleError(
                        f"horizon K={K} below the earliest possible arrival "
                        f"({earliest} epochs) for ({s},{c})->{d}",
                        status="horizon")

    # ------------------------------------------------------------------
    def template(self) -> ModelTemplate:
        """Write the MILP as stems, row stems and template entries.

        Column stems run all flow ``(commodity, link)``, then all buffer
        ``(commodity, GPU)``, then all read ``(commodity, sink)``; row
        stems follow the constraint families in model row order.
        """
        K = self.plan.num_epochs
        with _obs_span("milp.build", epochs=K,
                       commodities=len(self.commodities)):
            self._precheck_horizon()
            return self._template(K)

    def _template(self, K: int) -> ModelTemplate:
        topo, plan, config = self.topology, self.plan, self.config
        links, src, dst, offs, gpu_ids, switches, node_pos, sw_pos = \
            fabric(topo, plan)
        E, G, n = len(links), len(gpu_ids), len(node_pos)
        link_pos = {link: l for l, link in enumerate(links)}
        kappa = np.array([plan.occupancy[link] for link in links],
                         dtype=np.int64)

        qs = self.commodities
        Q = len(qs)
        q_pos = {q: i for i, q in enumerate(qs)}
        earliest = self.earliest
        holder = np.zeros((Q, n), dtype=bool)
        for q, nodes in self.initial_holders.items():
            if q in q_pos:
                holder[q_pos[q], list(nodes)] = True
        sink_q = np.fromiter((q_pos[q] for q in qs
                              for _ in self.demand.destinations(*q)),
                             dtype=np.int64)
        sink = np.fromiter((d for q in qs
                            for d in self.demand.destinations(*q)),
                           dtype=np.int64, count=len(sink_q))
        D = len(sink_q)
        commodity = np.arange(Q)[:, None]

        # -- column stems: all flow, then all buffer, then all read
        f_stem = np.arange(Q * E).reshape(Q, E)
        b_stem = Q * E + np.arange(Q * G).reshape(Q, G)
        r_stem = Q * (E + G) + np.arange(D)
        S = Q * (E + G) + D
        keys = np.zeros((4, S), dtype=np.int64)
        lo = np.zeros(S, dtype=np.int64)
        hi = np.zeros(S, dtype=np.int64)
        weight = np.zeros(S)
        # a send into a switch must be forwardable at its arrival epoch; a
        # send to a GPU must land within the horizon, unless the next A*
        # round takes the overhang (then any send epoch k <= K - 1 is open)
        put(keys, f_stem, FLOW, commodity, src, dst + 1)
        lo[f_stem] = earliest[:, src]
        f_last = np.where(sw_pos[dst] >= 0, K - offs - 2,
                          K - 1 if self.allow_overhang else K - offs - 1)
        hi[f_stem] = f_last
        put(keys, b_stem, HOLD, commodity, gpu_ids, 0)
        lo[b_stem] = earliest[:, gpu_ids]
        hi[b_stem] = K
        put(keys, r_stem, READ, sink_q, sink, 0)
        lo[r_stem] = np.maximum(earliest[sink_q, sink] - 1, 0)
        hi[r_stem] = K - 1
        weight[r_stem] = [config.weight(*q, d) for q in qs
                          for d in self.demand.destinations(*q)]

        # -- row stems, family by family in model row order, with their
        # template entries; every row is ``<= upper``
        draft = Draft()
        rows, add = draft.rows, draft.add

        # buffer recurrence: B[k] <= arrivals(k) + B[k-1] for k >= 1, a
        # send on (i, j) at k' reaching j's buffer at k' + Δ + 1; chunks in
        # flight since the previous A* round arrive as constants
        injected = {}
        for (s, c, node, k), count in self.injections.items():
            if (s, c) in q_pos and 0 <= k <= K:
                injected.setdefault((q_pos[(s, c)], node_pos[node]),
                                    np.zeros((1, K + 1)))[0, k] = count
        at = np.full((Q, G), -1, dtype=np.int64)
        if injected:
            at[tuple(np.array(list(injected)).T)] = draft.table(
                np.concatenate(list(injected.values())))
        recur = rows(_RECUR, commodity, gpu_ids, 0,
                     np.maximum(lo[b_stem], 1), K, table=at)
        into = node_pos[dst] >= 0
        add(recur, b_stem, 0, 1.0)
        add(recur, b_stem, -1, -1.0)
        add(recur[:, node_pos[dst[into]]], f_stem[:, into],
            -offs[into] - 1, -1.0)

        # availability: a GPU's send needs the chunk buffered — or,
        # without store-and-forward, arriving this epoch (Figure 9)
        out = node_pos[src] >= 0
        avail = rows(_AVAIL, commodity, src[out], dst[out] + 1,
                     lo[f_stem[:, out]], hi[f_stem[:, out]])
        add(avail, f_stem[:, out], 0, 1.0)
        buffered = config.store_and_forward | holder[:, src[out]]
        add(avail[buffered], b_stem[:, node_pos[src[out]]][buffered], 0,
            -1.0)
        which, link = np.nonzero(src[out][:, None] == dst)  # links in
        relay = ~buffered[:, which]
        add(avail[:, which][relay], f_stem[:, link][relay],
            np.broadcast_to(-offs[link] - 1, relay.shape)[relay], -1.0)

        # zero-buffer switches: out(k) bounded by in(k - Δ - 1), per
        # out-link with copy (rows by switch, commodity, epoch, out-link
        # rank: one single-epoch row stem each), in total without
        out = np.flatnonzero(sw_pos[src] >= 0)
        if config.switch_model is SwitchModel.COPY:
            f_out = f_stem[:, out]
            count = np.maximum(hi[f_out] - lo[f_out] + 1, 0).ravel()
            cell = np.repeat(np.arange(count.size), count)
            epoch = lo[f_out].ravel()[cell] + steps(count)
            q, link = np.divmod(cell, len(out))
            link = out[link]
            # a switch's out-links rank in link order (``out_edges``)
            order = np.lexsort((link, epoch, q, sw_pos[src[link]]))
            q, link, epoch = q[order], link[order], epoch[order]
            switch = rows(_SWITCH, q, src[link], dst[link] + 1, epoch,
                          epoch)
            add(switch, f_stem[q, link], 0, 1.0)
            which, into = np.nonzero(src[link][:, None] == dst)
            add(switch[which], f_stem[q[which], into], -offs[into] - 1,
                -1.0)
        else:
            # a switch's out-flows share their first epoch
            last = np.full(len(switches), -1, dtype=np.int64)
            np.maximum.at(last, sw_pos[src[out]], f_last[out])
            switch = rows(_SWITCH, commodity.T, switches[:, None], 0,
                          earliest[:, switches].T, last[:, None]).T
            add(switch[:, sw_pos[src[out]]], f_stem[:, out], 0, 1.0)
            into = np.flatnonzero(sw_pos[dst] >= 0)
            add(switch[:, sw_pos[dst[into]]], f_stem[:, into],
                -offs[into] - 1, -1.0)

        # capacity: per (link, epoch) in chunks, over the κ-epoch window a
        # send occupies; a window reaching back before epoch 0 loses what
        # the previous A* round's sends still occupy (capacity_carry)
        upper = np.floor(kappa[:, None] * capacity_chunks(config, plan, links)
                         + _EPS)
        upper = np.where(kappa[:, None] > 1, np.maximum(upper, 1.0), upper)
        for (i, j, k), count in self.capacity_carry.items():
            link = link_pos.get((i, j))
            if link is not None and k < 0:
                upper[link, :max(0, k + kappa[link])] -= count
        cap = rows(_CAP, -1, src, dst + 1, 0, K - 1,
                   table=draft.table(np.pad(upper, ((0, 0), (0, 1)))))
        for shift in range(int(kappa.max(initial=1))):
            wide = kappa > shift
            add(cap[wide], f_stem[:, wide], -shift, 1.0)

        # destination: R[q,d,k] <= B[q,d,k+1], read only once it is there
        dest = rows(_DEST, sink_q, sink, 0, lo[r_stem], K - 1)
        add(dest, r_stem, 0, 1.0)
        add(dest, b_stem[sink_q, node_pos[sink]], 1, -1.0)

        # buffer limit: sources hold their data and destinations must keep
        # theirs; the limit governs the relay buffer only
        limit = config.buffer_limit_chunks
        if limit is not None:
            exempt = holder.copy()
            exempt[sink_q, sink] = True
            relay = ~exempt[:, gpu_ids]
            buffer = rows(_BUFFER, -1, gpu_ids, 0, 0, K, upper=float(limit))
            add(np.broadcast_to(buffer, relay.shape)[relay], b_stem[relay],
                0, 1.0)

        # hyper-edge usage (Appendix C): per group and epoch, the active
        # edges in total, then per out-node and per in-node at most one
        for group in self.hyper_groups:
            edges = [link_pos[edge] for edge in group.edges]
            subsets = [edges] + [
                [e for e in edges if end[e] == node] for end in (src, dst)
                for node in dict.fromkeys(end[edges].tolist())]
            limits = np.ones(len(subsets))
            limits[0] = group.usage_limit
            epoch = np.arange(K)[:, None]
            usage = rows(_HYPER, -1, group.switch, np.arange(len(subsets)),
                         epoch, epoch, upper=limits)
            member = np.repeat(np.arange(len(subsets)),
                               list(map(len, subsets)))
            link = np.concatenate(subsets)
            add(usage[None, :, member], f_stem[:, None, link], 0, 1.0)

        template = draft.finish(heads=list(qs), num_nodes=n, stems=keys,
                                lo=lo, hi=hi, weight=weight)
        # F and B are binary, B at epoch 0 fixed by the initial holders;
        # the last read must be 1 unless an A* round may end with demand
        # outstanding
        stem, epoch, _ = template.stem_columns(np.arange(len(template.lo)))
        family, head, node, _ = template.stems[:, stem]
        lower, upper = np.zeros(template.num_cols), np.ones(template.num_cols)
        first = (family == HOLD) & (epoch == 0)
        lower[first] = upper[first] = holder[head[first], node[first]]
        if self.require_completion:
            lower[(family == READ) & (epoch == K - 1)] = 1.0
        template.binary = template.stems[0] != READ
        template.col_lower, template.col_upper = lower, upper
        return template


# ----------------------------------------------------------------------
# solve facade
# ----------------------------------------------------------------------
def solve_milp(topology: Topology, demand: Demand, config: TecclConfig,
               *, hyper_groups: list[HyperEdgeGroup] | None = None
               ) -> MilpOutcome:
    """Build and solve the general formulation; returns a pruned schedule.

    With an explicit ``num_epochs`` an infeasible horizon raises
    :class:`InfeasibleError`. With the automatic horizon, the path-based
    bound is a heuristic (side constraints such as hyper-edge usage limits
    can invalidate it), so the solve climbs
    :func:`~repro.core.epochs.horizon_ladder` before giving up. On a
    unicast demand the first rung queues each link at the LP's capacity
    row, not at this formulation's integral window, so it is optimistic
    wherever ``cap·κ`` is not an integer; the measured cases still answer
    on attempt 1 (``tests/test_epochs.py::TestUnicastMilpRung``).
    """
    def solve_at(num_epochs: int) -> MilpOutcome:
        plan = build_epoch_plan(topology, config, num_epochs=num_epochs)
        return _solve_milp_at(topology, demand, config, plan, hyper_groups)

    attempt, num_epochs, outcome = first_feasible_rung(
        horizon_ladder(topology, demand, config), solve_at)
    outcome.result.stats["horizon_attempts"] = attempt
    outcome.result.stats["horizon_epochs"] = num_epochs
    return outcome


def _solve_milp_at(topology: Topology, demand: Demand, config: TecclConfig,
                   plan: EpochPlan, hyper_groups) -> MilpOutcome:
    """One MILP at one horizon: build → solve → extract.

    The MILP takes no symmetry shortcut: the quotient restriction the LP
    uses is invalid for integer programs, and lex-leader cuts were slower
    than none on every symmetric MILP measured, so the full model is
    solved as built.

    A horizon too short for the demand — caught by the builder's
    earliest-arrival pre-check or proved by the solver — raises
    :class:`InfeasibleError` with ``status="horizon"``; any other solver
    failure raises with the backend's status and message.
    """
    builder = MilpBuilder(topology, demand, config, plan,
                          hyper_groups=hyper_groups)
    start = time.perf_counter()
    problem = builder.build()
    build_time = time.perf_counter() - start
    result = problem.model.solve(config.solver)
    result.stats["build_time"] = build_time
    if result.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(
            f"infeasible at horizon K={plan.num_epochs}", status="horizon")
    result.require_solution()
    return extract_outcome(problem, result)


def extract_outcome(problem: MilpProblem, result: SolveResult) -> MilpOutcome:
    """Turn a solved MILP into a pruned :class:`Schedule`."""
    with _obs_span("milp.extract"):
        plan = problem.plan
        values = result.require_solution().values
        sends = [Send(epoch=k, source=q[0], chunk=q[1], src=i, dst=j)
                 for (q, i, j, k) in problem.f_vars.above(values, 0.5)]
        raw = Schedule(sends=sorted(sends), tau=plan.tau,
                       chunk_bytes=plan.chunk_bytes,
                       num_epochs=plan.num_epochs)

        delivered: dict[tuple[int, int, int], int] = {}
        for (s, c), d, k in sorted(problem.r_vars.above(values, 0.5),
                                   key=lambda key: key[2]):
            delivered.setdefault((s, c, d), k)

        held = problem.b_vars.above(values, 0.5)

        def holds(s: int, c: int, n: int, k: int) -> bool:
            return ((s, c), n, k) in held

        pruned = prune_sends(raw, problem.demand, problem.topology, plan,
                             delivered, buffer_values=holds,
                             store_and_forward=problem.config.store_and_forward)
        return MilpOutcome(schedule=pruned, raw_schedule=raw, result=result,
                           plan=plan, delivered_epoch=delivered,
                           finish_time=pruned.finish_time(problem.topology))
