"""The LP form of TE-CCL (§4.1): optimal and scalable for copy-free demands.

When no chunk is wanted by two destinations (ALLTOALL-like demands), copy
buys nothing, flows may be fractional, and the whole problem is a linear
program. Flow conservation reverts to the traditional *equality* form — a
node buffers, forwards, or consumes what it receives — and chunks of one
source collapse into a single fungible commodity, shrinking the model by a
factor of |C|.

The same machinery doubles as the paper's "no copy" ablation (Figure 7): a
multicast demand is modelled by giving the commodity a *supply multiplicity*
(the source injects one physical copy per destination). Conservation then
guarantees no in-network duplication, which is exactly what "without copy"
means; per-chunk commodities keep content distinct so Figure 3's
half-chunk confusion cannot arise (see DESIGN.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.collectives.demand import Demand
from repro.core.columns import ColumnTable
from repro.core.config import TecclConfig
from repro.core.epochs import (UNREACHABLE, EpochPlan, build_epoch_plan,
                               earliest_arrival_epochs,
                               first_feasible_rung, horizon_ladder)
from repro.core.postprocess import _TOL as _PRUNE_TOL
from repro.core.postprocess import prune_fractional
from repro.core.schedule import FlowSchedule
from repro.core.template import (EVERY_EPOCH, FLOW, HOLD, READ, Draft,
                                 ModelTemplate, capacity_chunks, fabric,
                                 put)
from repro.errors import InfeasibleError, ModelError
from repro.obs.trace import span as _obs_span
from repro.simulate import conformance
from repro.solver import Model, SolveResult, SolveStatus
from repro.topology.topology import Topology

_EPS = 1e-9


@dataclass(frozen=True)
class LpCommodity:
    """One commodity of the LP: fungible mass originating at one node.

    ``key`` is either a bare source id (chunks aggregated, the fast path for
    ALLTOALL) or a ``(source, chunk)`` pair (needed when a chunk has several
    destinations, i.e. the no-copy multicast mode).
    """

    key: object
    origin: int
    supply: float
    sinks: dict[int, float]


def build_commodities(demand: Demand, aggregate: bool = True,
                      ) -> list[LpCommodity]:
    """Group the demand into LP commodities.

    Aggregation by source applies only when every chunk has exactly one
    destination (then bytes of one source are mutually fungible — flow
    decomposition assigns distinct content per path).
    """
    single_dest = not demand.benefits_from_copy()
    if aggregate and single_dest:
        commodities = []
        for s in demand.sources:
            sinks: dict[int, float] = {}
            supply = 0.0
            for c in demand.chunks_of(s):
                for d in demand.destinations(s, c):
                    sinks[d] = sinks.get(d, 0.0) + 1.0
                    supply += 1.0
            commodities.append(LpCommodity(key=s, origin=s, supply=supply,
                                           sinks=sinks))
        return commodities
    commodities = []
    for s, c in demand.commodities():
        dests = demand.destinations(s, c)
        commodities.append(LpCommodity(
            key=(s, c), origin=s, supply=float(len(dests)),
            sinks={d: 1.0 for d in dests}))
    return commodities


@dataclass
class LpProblem:
    """A built LP instance.

    The ``*_vars`` tables map formulation keys to raw ``int`` solver column
    indices (what :meth:`repro.solver.SolveResult.value` takes); they read
    as dicts and are held as arrays (:class:`ColumnTable`). ``model`` is
    ``None`` when only the quotient was built: the columns are the full
    model's, the solution a lifted one.
    """

    model: Model | None
    plan: EpochPlan
    topology: Topology
    commodities: list[LpCommodity]
    f_vars: ColumnTable = field(default_factory=ColumnTable)
    b_vars: ColumnTable = field(default_factory=ColumnTable)
    r_vars: ColumnTable = field(default_factory=ColumnTable)


@dataclass
class LpOutcome:
    """A solved LP instance with the pruned fractional schedule."""

    schedule: FlowSchedule
    raw_schedule: FlowSchedule
    result: SolveResult
    plan: EpochPlan
    finish_time: float

    @property
    def solve_time(self) -> float:
        return self.result.solve_time


#: row-stem families, in model row order
_INIT, _CONS, _SWITCH, _CAP, _DEMAND, _BUFFER = range(6)


class LpBuilder:
    """Builds the §4.1 linear program over one horizon.

    :meth:`template` writes every constraint family once, at stem level,
    with NumPy index arithmetic (variable existence masks are epoch
    intervals per stem); :meth:`build` expands it into the full model as
    one COO block — no per-term Python objects.
    ``tests/test_model_equivalence.py`` pins the compiled matrices.
    """

    def __init__(self, topology: Topology, demand: Demand,
                 config: TecclConfig, plan: EpochPlan, *,
                 aggregate: bool = True):
        demand.validate(topology)
        topology.validate()
        if config.priorities is not None:
            aggregate = False  # per-chunk weights need per-chunk commodities
        self.topology = topology
        self.demand = demand
        self.config = config
        self.plan = plan
        self.commodities = build_commodities(demand, aggregate=aggregate)
        self._earliest = earliest_arrival_epochs(topology, plan)

    # ------------------------------------------------------------------
    def build(self, template: ModelTemplate | None = None) -> LpProblem:
        """The full model: ``template`` (built when not given) expanded
        over every row stem."""
        if template is None:
            template = self.template()
        with _obs_span("lp.expand", cols=template.num_cols):
            model = template.model("teccl-lp")
        return self.problem(template, model)

    def problem(self, template: ModelTemplate,
                model: Model | None = None) -> LpProblem:
        """An :class:`LpProblem` keyed by ``template``'s columns."""
        f_vars, b_vars, r_vars = template.tables()
        return LpProblem(model=model, plan=self.plan, topology=self.topology,
                         commodities=self.commodities, f_vars=f_vars,
                         b_vars=b_vars, r_vars=r_vars)

    def _sink_arrivals(self):
        """``(commodity, origin, sink, earliest)``: one entry per sink of
        each commodity, in order."""
        qs = self.commodities
        count = [len(q.sinks) for q in qs]
        commodity = np.repeat(np.arange(len(qs)), count)
        origin = np.repeat([q.origin for q in qs], count).astype(np.int64)
        sink = np.fromiter((d for q in qs for d in q.sinks), dtype=np.int64,
                           count=len(commodity))
        return commodity, origin, sink, self._earliest[origin, sink]

    def _check_horizon(self) -> None:
        K = self.plan.num_epochs
        commodity, origin, sink, earliest = self._sink_arrivals()
        for n in np.flatnonzero(earliest > K)[:1].tolist():
            if earliest[n] >= UNREACHABLE:
                raise ModelError(
                    f"sink {sink[n]} unreachable from origin {origin[n]}")
            raise InfeasibleError(
                f"horizon K={K} below earliest arrival ({earliest[n]}) for "
                f"commodity {self.commodities[commodity[n]].key}->{sink[n]}",
                status="horizon")

    # ------------------------------------------------------------------
    def template(self) -> ModelTemplate:
        """Write the LP as stems, row stems and template entries.

        Per commodity the column stems run flow (link), buffer (GPU),
        read (sink); a variable exists only where the commodity can have
        reached the node and the send still lands within the horizon.
        """
        plan, topo, K = self.plan, self.topology, self.plan.num_epochs
        with _obs_span("lp.build", epochs=K,
                       commodities=len(self.commodities)):
            self._check_horizon()
            return self._template(plan, topo, K)

    def _template(self, plan: EpochPlan, topo: Topology,
                  K: int) -> ModelTemplate:
        links, src, dst, offs, gpu_ids, switches, node_pos, sw_pos = \
            fabric(topo, plan)
        E, G, n = len(links), len(gpu_ids), len(node_pos)

        qs = self.commodities
        Q = len(qs)
        origin = np.fromiter((q.origin for q in qs), dtype=np.int64, count=Q)
        earliest = self._earliest[origin]  # (commodity, node)
        # sinks, commodity by commodity
        sink_q = np.repeat(np.arange(Q), [len(q.sinks) for q in qs])
        sink = np.fromiter((d for q in qs for d in q.sinks), dtype=np.int64,
                           count=len(sink_q))
        amount = np.fromiter((a for q in qs for a in q.sinks.values()),
                             dtype=float, count=len(sink_q))
        weight = np.ones(len(sink_q))
        if self.config.priorities is not None:
            weight = np.fromiter(
                (self.config.weight(q.key[0], q.key[1], d) if
                 isinstance(q.key, tuple) else 1.0
                 for q in qs for d in q.sinks), dtype=float,
                count=len(sink_q))
        D = len(sink_q)

        # -- column stems: per commodity E flow, G buffer, its read stems
        per_q = E + G + np.bincount(sink_q, minlength=Q)
        q_first = np.cumsum(per_q) - per_q
        f_stem = q_first[:, None] + np.arange(E)[None, :]
        b_stem = q_first[:, None] + E + np.arange(G)[None, :]
        r_stem = q_first[sink_q] + E + G + (
            np.arange(D) - (np.cumsum(per_q - E - G) - (per_q - E - G))[
                sink_q])
        S = int(per_q.sum())
        keys = np.zeros((4, S), dtype=np.int64)
        lo = np.zeros(S, dtype=np.int64)
        hi = np.zeros(S, dtype=np.int64)
        stem_weight = np.zeros(S)
        commodity = np.arange(Q)[:, None]
        put(keys, f_stem, FLOW, commodity, src, dst + 1)
        lo[f_stem] = earliest[:, src]
        hi[f_stem] = (K - offs - 1)[None, :]
        put(keys, b_stem, HOLD, commodity, gpu_ids, 0)
        is_origin = gpu_ids[None, :] == origin[:, None]
        lo[b_stem] = np.where(is_origin, 0, earliest[:, gpu_ids])
        hi[b_stem] = K if self.config.store_and_forward \
            else np.where(is_origin, K, -1)
        put(keys, r_stem, READ, sink_q, sink, 0)
        lo[r_stem] = np.maximum(earliest[sink_q, sink] - 1, 0)
        hi[r_stem] = K - 1
        stem_weight[r_stem] = weight
        empty_read = lo[r_stem] > hi[r_stem]
        if empty_read.any():
            raise InfeasibleError(
                f"sink {sink[np.argmax(empty_read)]} cannot be reached "
                "within the horizon", status="horizon")

        # -- row stems, in model row order
        draft = Draft()
        rows, add = draft.rows, draft.add
        supply = np.fromiter((q.supply for q in qs), dtype=float, count=Q)
        init = rows(_INIT, np.arange(Q), origin, 0, 0, 0, supply, supply)
        # epoch 0 of an origin's conservation is its initialization
        cons = rows(_CONS, commodity, gpu_ids, 0, is_origin * 1, K - 1, 0.0)
        swc = rows(_SWITCH, commodity, switches, 0, 0, K - 1, 0.0)
        cap = rows(_CAP, -1, src, dst + 1, 0, K - 1, upper=np.inf,
                   table=draft.table(capacity_chunks(self.config, plan,
                                                     links)))
        demand = rows(_DEMAND, sink_q, sink, 0, 0, 0, amount, amount)
        limit = self.config.buffer_limit_chunks
        if limit is not None:
            buffer = rows(_BUFFER, -1, gpu_ids, 0, 0, K, upper=limit)

        # -- template entries (row stem, column stem, shift, coef)
        out0 = src[None, :] == origin[:, None]
        origin_pos = node_pos[origin]
        # initialization: B[origin, 0] + out(origin, 0) == supply
        add(init, b_stem[init, origin_pos], 0, 1.0)
        add(np.broadcast_to(init[:, None], out0.shape)[out0], f_stem[out0],
            0, 1.0)
        # conservation: arrivals(k) + B[k] − B[k+1] − R[k] − sends(k+1)
        into, out = node_pos[dst] >= 0, node_pos[src] >= 0
        add(cons[:, node_pos[dst[into]]], f_stem[:, into], -offs[into], 1.0)
        add(cons[:, node_pos[src[out]]], f_stem[:, out], 1, -1.0)
        add(cons, b_stem, 0, 1.0)
        add(cons, b_stem, 1, -1.0)
        add(cons[sink_q, node_pos[sink]], r_stem, 0, -1.0)
        # switches neither buffer nor consume: in(k) == out(k+1)
        into, out = sw_pos[dst] >= 0, sw_pos[src] >= 0
        add(swc[:, sw_pos[dst[into]]], f_stem[:, into], -offs[into], 1.0)
        add(swc[:, sw_pos[src[out]]], f_stem[:, out], 1, -1.0)
        # capacity: per (link, epoch), total flow over commodities
        add(cap[None, :], f_stem, 0, 1.0)
        # demand met: each sink reads its amount over the horizon
        add(demand, r_stem, EVERY_EPOCH, 1.0)
        # buffer limit: relays only, sources are exempt
        if limit is not None:
            add(np.broadcast_to(buffer, is_origin.shape)[~is_origin],
                b_stem[~is_origin], 0, 1.0)
        return draft.finish(heads=[q.key for q in qs], num_nodes=n,
                            stems=keys, lo=lo, hi=hi, weight=stem_weight)


# ----------------------------------------------------------------------
# one built model, many horizons
# ----------------------------------------------------------------------
class IncrementalLp:
    """One LP built at horizon K that answers every horizon K' <= K.

    The §6 ``minimize_epochs`` search is a sequence of instances that
    differ only in the horizon. This class builds the model **once**,
    through :meth:`LpBuilder.build`, and probes the smaller horizons on it:

    * :meth:`restrict` answers "is horizon K' < K feasible?" on the *same*
      model by zero-bounding every variable that cannot act before K'
      (reads at or past K', flows landing past it, buffers beyond it). The
      supply/demand-met equalities make this exactly equivalent to the cold
      horizon-K' model: every unit of supply must be read, so a feasible
      point can put no mass on the clamped variables. Bounds live outside
      the stacked matrix, so a probe re-stacks nothing.
    * :meth:`solve_at` solves at one horizon (restricted or full) on
      :attr:`session`, the instance's live HiGHS session: the first solve
      is cold, every later one a re-solve after the bound edits (closing
      the session frees it); :meth:`extract` reads a result back over the
      horizon-K' view.

    A horizon *above* K is a rebuild: construct a new instance at the
    larger K (the build is 20–50× cheaper than the solve that follows).
    """

    def __init__(self, topology: Topology, demand: Demand,
                 config: TecclConfig, num_epochs: int, *,
                 aggregate: bool = True):
        plan = build_epoch_plan(topology, config, num_epochs=num_epochs)
        self.builder = LpBuilder(topology, demand, config, plan,
                                 aggregate=aggregate)
        start = time.perf_counter()
        self.problem = self.builder.build()
        self.build_time = time.perf_counter() - start
        self.model = self.problem.model
        self.topology = topology
        self.demand = demand
        self.config = config
        self.plan = plan
        self.num_epochs = num_epochs
        self.commodities = self.builder.commodities
        self.f_vars = self.problem.f_vars
        self.b_vars = self.problem.b_vars
        self.r_vars = self.problem.r_vars
        # buffer index at which each flow column lands: epoch + Δ + 1
        offset = np.zeros((topology.num_nodes,) * 2, dtype=np.int64)
        for i, j in topology.links:
            offset[i, j] = plan.arrival_offset(i, j)
        self._lands = (self.f_vars.epoch
                       + offset[self.f_vars.node, self.f_vars.node2] + 1)
        self._restricted: np.ndarray | None = None
        self.session = self.model.session(config.solver)

    # ------------------------------------------------------------------
    # bound-restricted probing
    # ------------------------------------------------------------------
    def horizon_lower_bound(self) -> int:
        """No horizon below this can be feasible (earliest arrivals)."""
        earliest = self.builder._sink_arrivals()[3]
        return int(earliest[earliest < UNREACHABLE].max(initial=1))

    def restrict(self, num_epochs: int) -> None:
        """Clamp the model to the horizon-``num_epochs`` subspace."""
        if not 1 <= num_epochs <= self.num_epochs:
            raise ModelError(
                f"restriction K={num_epochs} outside [1, {self.num_epochs}]")
        self.release()
        clamped = np.concatenate([
            self.f_vars.column[self._lands > num_epochs],
            self.b_vars.column[self.b_vars.epoch > num_epochs],
            self.r_vars.column[self.r_vars.epoch >= num_epochs]])
        self.model.set_var_bounds(clamped, ub=0.0)
        self._restricted = clamped

    def release(self) -> None:
        """Lift any active horizon restriction (bounds back to +inf)."""
        if self._restricted is not None and len(self._restricted):
            self.model.set_var_bounds(self._restricted, ub=np.inf)
        self._restricted = None

    def solve_at(self, num_epochs: int) -> SolveResult:
        """Solve the instance at one horizon (restricted or full)."""
        with _obs_span("lp.incremental.solve_at", epochs=num_epochs):
            if num_epochs == self.num_epochs:
                self.release()
            else:
                self.restrict(num_epochs)
            return self.session.solve()

    def extract(self, result: SolveResult, num_epochs: int) -> LpOutcome:
        """An :class:`LpOutcome` over the horizon-``num_epochs`` view."""
        plan_k = self.plan.with_num_epochs(num_epochs)
        view = LpProblem(
            model=self.model, plan=plan_k, topology=self.topology,
            commodities=self.commodities,
            f_vars=self.f_vars.where(self._lands <= num_epochs),
            b_vars=self.b_vars.where(self.b_vars.epoch <= num_epochs),
            r_vars=self.r_vars.where(self.r_vars.epoch < num_epochs))
        return extract_lp_outcome(view, result)


# ----------------------------------------------------------------------
# facades
# ----------------------------------------------------------------------
def solve_lp(topology: Topology, demand: Demand, config: TecclConfig,
             *, aggregate: bool = True) -> LpOutcome:
    """Build and solve the LP; returns a pruned fractional schedule.

    Like :func:`repro.core.milp.solve_milp`, the horizon climbs
    :func:`~repro.core.epochs.horizon_ladder`: an automatically estimated
    K that proves infeasible is retried at the next rung (the bound is a
    heuristic).
    """
    def solve_at(num_epochs: int) -> LpOutcome:
        plan = build_epoch_plan(topology, config, num_epochs=num_epochs)
        return _solve_lp_at(topology, demand, config, plan,
                            aggregate=aggregate)

    attempt, num_epochs, outcome = first_feasible_rung(
        horizon_ladder(topology, demand, config, copy=False), solve_at)
    outcome.result.stats["horizon_attempts"] = attempt
    outcome.result.stats["horizon_epochs"] = num_epochs
    return outcome


def _solve_lp_at(topology: Topology, demand: Demand, config: TecclConfig,
                 plan: EpochPlan, *, aggregate: bool = True) -> LpOutcome:
    """One LP at one horizon: template → detect → quotient-first or full
    build → solve → extract → vet.

    The only place an LP becomes a solved, vetted :class:`LpOutcome`;
    :func:`solve_lp`, the cold horizon search and POP's partitions all
    land here. The builder writes the stem-level template first, then
    symmetry detection runs (:func:`_proved_quotient`). With a group whose
    generators the template proves, only the quotient is emitted and
    solved — the full constraint matrix is never assembled — and the
    lifted solution passes the trust gate (:func:`conformance.vetted`):
    the quotient is exact, so a refusal means a proof was fooled, and the
    full model answers. With no group, or every generator refused
    (``symmetry_fallback: "proof"``), the full model is expanded once and
    solved. A horizon too short for the demand — caught by the builder's
    earliest-arrival pre-check or proved by the solver — raises
    :class:`InfeasibleError` with ``status="horizon"``; any other solver
    failure raises with the backend's status.
    """
    builder = LpBuilder(topology, demand, config, plan, aggregate=aggregate)
    start = time.perf_counter()
    template = builder.template()
    build_time = time.perf_counter() - start
    orbit_map, refused = _proved_quotient(template, topology, demand, config)
    if orbit_map is not None:
        from repro.core import symmetry as _symmetry

        problem = builder.problem(template)
        result = _symmetry.solve_reduced(orbit_map, config.solver)
    else:
        start = time.perf_counter()
        problem = builder.build(template)
        build_time += time.perf_counter() - start
        result = problem.model.solve(config.solver)
        if refused:
            result.stats["symmetry_fallback"] = "proof"
    if result.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(
            f"infeasible at horizon K={plan.num_epochs}", status="horizon")
    result.require_solution()
    outcome = extract_lp_outcome(problem, result)
    if orbit_map is not None:
        def full() -> LpOutcome:
            problem = builder.build(template)
            return extract_lp_outcome(problem,
                                      problem.model.solve(config.solver))

        replay = conformance.replay_of("check_flow", topology, demand, config)
        outcome = conformance.vetted("symmetry", outcome, replay, full)
    outcome.result.stats["build_time"] = build_time
    return outcome


def _proved_quotient(template: ModelTemplate, topology: Topology,
                     demand: Demand, config: TecclConfig):
    """``(orbit_map, refused)``: the quotient of ``template`` under the
    instance's symmetry when one applies and is proved, else ``None``;
    ``refused`` counts generators the template proof turned down. The
    ``auto`` threshold reads the column count off the template."""
    from repro.core import symmetry as _symmetry

    if not _symmetry.symmetry_enabled(config.solver, template.num_cols):
        return None, 0
    generators = _symmetry.find_generators(topology, demand)
    if not generators:
        return None, 0
    orbit_map, refused = _symmetry.quotient_lp(template, generators)
    if orbit_map is not None:
        orbit_map.stats["symmetry_group_order"] = generators.order
    elif refused:
        conformance.count_fallback("symmetry", "proof", refused=refused)
    return orbit_map, refused


def extract_lp_outcome(problem: LpProblem, result: SolveResult) -> LpOutcome:
    with _obs_span("lp.extract"):
        # only values a consumer can see become dict entries: the schedule
        # drops flows/reads at or below its tolerance, the pruner never
        # draws on a hold at or below its own
        values = result.require_solution().values
        tolerance = FlowSchedule.tolerance
        raw = FlowSchedule(
            flows=problem.f_vars.above(values, tolerance),
            reads=problem.r_vars.above(values, tolerance),
            tau=problem.plan.tau, chunk_bytes=problem.plan.chunk_bytes,
            num_epochs=problem.plan.num_epochs)
        pruned = prune_fractional(
            raw, problem.topology, problem.plan,
            buffers=problem.b_vars.above(values, _PRUNE_TOL))
        return LpOutcome(schedule=pruned, raw_schedule=raw, result=result,
                         plan=problem.plan,
                         finish_time=pruned.finish_time(problem.topology))


def minimize_epochs_lp(topology: Topology, demand: Demand,
                       config: TecclConfig, *,
                       max_epochs: int | None = None) -> LpOutcome:
    """Binary search for the smallest feasible horizon (§6 "TE-CCL variants").

    The paper runs the ALLTOALL solver in a loop, binary-searching the number
    of epochs; the returned schedule is the optimum for the minimal K.

    The search runs on :class:`IncrementalLp`: **one** model is built at
    the first feasible rung of :func:`~repro.core.epochs.horizon_ladder`
    (``max_epochs``, when given, is a hard cap on the rungs — a generous
    one costs nothing, the anchor still starts at the path bound), its
    full-horizon optimum brackets the search (the last read epoch is a
    feasibility witness; the earliest-arrival bound a floor), and the
    remaining probes are bound restrictions re-solved on the anchor's live
    HiGHS session (:meth:`IncrementalLp.solve_at`) — no rebuilds or reloads
    below the anchor, and usually only one or two extra solves.
    The result passes the trust gate (:func:`conformance.vetted`): a
    violation — a bug in the restriction machinery, not in the solver —
    falls back to :func:`_minimize_epochs_cold`, a fresh build and solve
    per probe.
    """
    def anchor_at(num_epochs: int):
        inc = IncrementalLp(topology, demand, config, num_epochs)
        result = inc.solve_at(num_epochs)
        if result.values is None:
            inc.session.close()
        if result.status is SolveStatus.INFEASIBLE:
            raise InfeasibleError(
                f"infeasible at horizon K={num_epochs}", status="horizon")
        result.require_solution()
        return inc, result

    # the search ignores an explicit ``config.num_epochs``: its rungs come
    # from the bound, its ceiling from ``max_epochs``
    ladder = horizon_ladder(topology, demand,
                            replace(config, num_epochs=None), copy=False)
    if max_epochs is not None:
        ladder = _capped(ladder, max_epochs)
    attempts, _, (inc, anchor) = first_feasible_rung(ladder, anchor_at)
    solves = attempts

    # Bracket the search from the anchor optimum: all reads land by the
    # last read epoch, so last_read + 1 is a *witnessed* feasible horizon
    # (total supply must be read, hence nothing can sit on later epochs);
    # no horizon can beat the earliest-arrival floor.
    read = anchor.values[inc.r_vars.column] > 1e-9
    last_read = int(inc.r_vars.epoch[read].max(initial=-1))
    best_k = min(inc.num_epochs, max(1, last_read + 1))
    best_result = anchor
    lo = inc.horizon_lower_bound()

    def probe(k: int):
        nonlocal solves
        result = inc.solve_at(k)
        solves += 1
        if result.values is not None:
            return result
        if result.status is not SolveStatus.INFEASIBLE:
            result.require_solution()
        return None

    # Galloping descent: the anchor's 1/(k+1) objective pushes reads early,
    # so its witnessed horizon is usually already minimal — one adjacent
    # probe proves it. When it is not, back off exponentially, then binary
    # search the last bracket; same minimal K, O(log) probes worst case.
    # Every probe re-solves on the anchor's session, closed on the way out.
    with inc.session:
        step = 1
        while lo < best_k:
            probe_k = max(lo, best_k - step)
            result = probe(probe_k)
            if result is not None:
                best_k, best_result = probe_k, result
                step *= 2
            else:
                lo = probe_k + 1
                break
        while lo < best_k:
            mid = (lo + best_k) // 2
            result = probe(mid)
            if result is not None:
                best_k, best_result = mid, result
            else:
                lo = mid + 1
    best_result.stats["horizon_attempts"] = attempts
    best_result.stats["horizon_solves"] = solves
    best_result.stats["build_time"] = inc.build_time
    outcome = inc.extract(best_result, best_k)
    replay = conformance.replay_of("check_flow", topology, demand, config)
    return conformance.vetted("horizon_search", outcome, replay, lambda: (
        _minimize_epochs_cold(topology, demand, config, inc.num_epochs)))


def _capped(ladder, max_epochs: int):
    """``ladder`` with every rung clipped to ``max_epochs``, the last one
    it yields."""
    for attempt, num_epochs in ladder:
        yield attempt, min(num_epochs, max_epochs)
        if num_epochs >= max_epochs:
            return


def _minimize_epochs_cold(topology: Topology, demand: Demand,
                          config: TecclConfig, max_epochs: int) -> LpOutcome:
    """Fresh build + cold solve per probe: the conformance-failure fallback
    of the shared-model search, and its reference in the tests."""
    lo, hi = 1, max_epochs
    best: LpOutcome | None = None
    while lo <= hi:
        mid = (lo + hi) // 2
        plan = build_epoch_plan(topology, config, num_epochs=mid)
        try:
            best = _solve_lp_at(topology, demand, config, plan)
            hi = mid - 1
        except InfeasibleError as err:
            if err.status != "horizon":
                raise  # a backend error proves nothing about the horizon
            lo = mid + 1
    if best is None:
        raise InfeasibleError(
            f"no feasible horizon up to K={max_epochs}", status="horizon")
    return best
