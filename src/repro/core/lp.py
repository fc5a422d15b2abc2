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

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.collectives.demand import Demand
from repro.core.columns import ColumnTable
from repro.core.config import TecclConfig
from repro.core.epochs import (EpochPlan, build_epoch_plan,
                               earliest_arrival_epochs,
                               first_feasible_rung, horizon_ladder)
from repro.core.postprocess import _TOL as _PRUNE_TOL
from repro.core.postprocess import prune_fractional
from repro.core.schedule import FlowSchedule
from repro.errors import InfeasibleError, ModelError
from repro.obs.trace import event as _obs_event
from repro.obs.trace import span as _obs_span
from repro.solver import Model, Sense, SolveResult, SolveStatus
from repro.topology.topology import Topology

_EPS = 1e-9

#: sentinel "unreachable" epoch, far beyond any horizon
_FAR = 1 << 30


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
    as dicts and are held as arrays (:class:`ColumnTable`).
    """

    model: Model
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


class LpBuilder:
    """Builds the §4.1 linear program over one horizon.

    Variable existence masks are computed with NumPy index arithmetic and
    every constraint family is appended as a COO block straight into the
    compiled-matrix buffers — no per-term Python objects.
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
    def build(self) -> LpProblem:
        with _obs_span("lp.build", epochs=self.plan.num_epochs,
                       commodities=len(self.commodities)):
            model = Model("teccl-lp", sense=Sense.MAXIMIZE)
            problem = LpProblem(model=model, plan=self.plan,
                                topology=self.topology,
                                commodities=self.commodities)
            self._check_horizon()
            self._build_coo(problem)
            return problem

    def _check_horizon(self) -> None:
        K = self.plan.num_epochs
        for q in self.commodities:
            for d in q.sinks:
                earliest = self._earliest[q.origin].get(d)
                if earliest is None:
                    raise ModelError(
                        f"sink {d} unreachable from origin {q.origin}")
                if earliest > K:
                    raise InfeasibleError(
                        f"horizon K={K} below earliest arrival ({earliest}) "
                        f"for commodity {q.key}->{d}", status="horizon")

    # ------------------------------------------------------------------
    # vectorized (COO) construction — no per-term Python objects
    # ------------------------------------------------------------------
    def _capacity_value(self, i: int, j: int, k: int) -> float:
        if self.config.capacity_fn is not None:
            return (self.config.capacity_fn(i, j, k) * self.plan.tau
                    / self.config.chunk_bytes)
        return self.plan.cap_chunks[(i, j)]

    def _build_coo(self, problem: LpProblem) -> None:
        """Emit the whole LP as COO blocks via NumPy index arithmetic.

        Per commodity the columns run ``F`` (link, epoch), ``B`` (GPU,
        epoch), ``R`` (sink, epoch); a variable exists only where the
        commodity can have reached the node and the send still lands
        within the horizon.
        """
        model = problem.model
        plan, topo, K = self.plan, self.topology, self.plan.num_epochs
        links = list(topo.links)
        E = len(links)
        src = np.fromiter((i for i, _ in links), dtype=np.int64, count=E)
        dst = np.fromiter((j for _, j in links), dtype=np.int64, count=E)
        offs = np.fromiter((plan.arrival_offset(i, j) for i, j in links),
                           dtype=np.int64, count=E)
        gpus = list(topo.gpus)
        G = len(gpus)
        gpu_ids = np.asarray(gpus, dtype=np.int64)
        switches = list(topo.switches)
        SW = len(switches)
        num_nodes = len(topo.nodes)
        node_pos = np.full(num_nodes, -1, dtype=np.int64)
        node_pos[gpu_ids] = np.arange(G)
        sw_pos = np.full(num_nodes, -1, dtype=np.int64)
        if SW:
            sw_pos[np.asarray(switches, dtype=np.int64)] = np.arange(SW)
        sf = self.config.store_and_forward
        k_send = np.arange(K, dtype=np.int64)

        # -- variable index grids, commodity by commodity
        with _obs_span("lp.family.vars"):
            per_q = []
            base = 0
            for q in self.commodities:
                earliest = np.full(num_nodes, _FAR, dtype=np.int64)
                for node, epoch in self._earliest[q.origin].items():
                    earliest[node] = epoch
                f_mask = ((earliest[src][:, None] <= k_send[None, :])
                          & (k_send[None, :] + offs[:, None] + 1 <= K))
                f_idx = np.full((E, K), -1, dtype=np.int64)
                nf = int(np.count_nonzero(f_mask))
                f_idx[f_mask] = base + np.arange(nf)
                base += nf

                origin_row = int(node_pos[q.origin])
                b_mask = earliest[gpu_ids][:, None] \
                    <= np.arange(K + 1)[None, :]
                b_mask[origin_row, :] = True
                if not sf:
                    only_origin = np.zeros(G, dtype=bool)
                    only_origin[origin_row] = True
                    b_mask &= only_origin[:, None]
                b_idx = np.full((G, K + 1), -1, dtype=np.int64)
                nb = int(np.count_nonzero(b_mask))
                b_idx[b_mask] = base + np.arange(nb)
                base += nb

                sinks = list(q.sinks)
                S = len(sinks)
                sink_ids = np.asarray(sinks, dtype=np.int64)
                r_mask = (earliest[sink_ids][:, None] <= k_send[None, :] + 1) \
                    if S else np.zeros((0, K), dtype=bool)
                r_idx = np.full((S, K), -1, dtype=np.int64)
                nr = int(np.count_nonzero(r_mask))
                r_idx[r_mask] = base + np.arange(nr)
                base += nr
                per_q.append((q, f_mask, f_idx, b_mask, b_idx, sinks, r_mask,
                              r_idx))

                # -- key tables for symmetry and extraction
                ls, ks = np.nonzero(f_mask)
                problem.f_vars.append(q.key, src[ls], ks, f_idx[f_mask],
                                      node2=dst[ls])
                ns, ks = np.nonzero(b_mask)
                problem.b_vars.append(q.key, gpu_ids[ns], ks, b_idx[b_mask])
                ss, ks = np.nonzero(r_mask)
                problem.r_vars.append(q.key, sink_ids[ss], ks, r_idx[r_mask])
            model.add_var_array(base, name="lpvar")

        with _obs_span("lp.family.initialization"):
            self._coo_initialization(model, per_q, src, node_pos)
        with _obs_span("lp.family.conservation"):
            self._coo_conservation(model, per_q, src, dst, offs, node_pos,
                                   G, K)
        if SW:
            with _obs_span("lp.family.switch_conservation"):
                self._coo_switch_conservation(model, per_q, src, dst, offs,
                                              sw_pos, SW, K)
        with _obs_span("lp.family.capacity"):
            self._coo_capacity(model, per_q, links, E, K)
        with _obs_span("lp.family.demand_met"):
            self._coo_demand_met(model, per_q, K)
        with _obs_span("lp.family.buffer_limit"):
            self._coo_buffer_limit(model, per_q, gpus, G, K)
        with _obs_span("lp.family.objective"):
            self._coo_objective(model, per_q)

    def _coo_initialization(self, model: Model, per_q, src, node_pos) -> None:
        """``B[origin,0] + out(origin,0) == supply``, one row per commodity."""
        rows, cols = [], []
        lower = []
        for r, (q, _f_mask, f_idx, _b_mask, b_idx, *_rest) in enumerate(per_q):
            cols.append(int(b_idx[int(node_pos[q.origin]), 0]))
            rows.append(r)
            out0 = f_idx[(src == q.origin), 0]
            out0 = out0[out0 >= 0]
            cols.extend(out0.tolist())
            rows.extend([r] * len(out0))
            lower.append(q.supply)
        bounds = np.asarray(lower, dtype=float)
        model.add_constr_coo(rows, cols, np.ones(len(cols)), bounds, bounds,
                             num_rows=len(per_q))

    def _coo_conservation(self, model: Model, per_q, src, dst, offs,
                          node_pos, G: int, K: int) -> None:
        """arrivals(k) + B[k] − B[k+1] − R[k] − sends(k+1) == 0 per GPU."""
        for q, f_mask, f_idx, b_mask, b_idx, sinks, r_mask, r_idx in per_q:
            origin_flat = int(node_pos[q.origin]) * K  # (origin, k=0)
            row_parts, col_parts, dat_parts = [], [], []

            ls, ks = np.nonzero(f_mask)
            vs = f_idx[f_mask]
            # arrivals: a send on (i, j) at k' lands in row (j, k' + Δ)
            at_gpu = node_pos[dst[ls]] >= 0
            row_parts.append(node_pos[dst[ls[at_gpu]]] * K
                             + ks[at_gpu] + offs[ls[at_gpu]])
            col_parts.append(vs[at_gpu])
            dat_parts.append(np.ones(int(at_gpu.sum())))
            # sends(k+1): a send at k' ≥ 1 leaves through row (i, k' − 1)
            out = (ks >= 1) & (node_pos[src[ls]] >= 0)
            row_parts.append(node_pos[src[ls[out]]] * K + ks[out] - 1)
            col_parts.append(vs[out])
            dat_parts.append(-np.ones(int(out.sum())))

            ns, ks = np.nonzero(b_mask)
            vs = b_idx[b_mask]
            held = ks <= K - 1  # B[k] on the left of row (n, k)
            row_parts.append(ns[held] * K + ks[held])
            col_parts.append(vs[held])
            dat_parts.append(np.ones(int(held.sum())))
            nxt = ks >= 1  # B[k+1] on the right of row (n, k)
            row_parts.append(ns[nxt] * K + ks[nxt] - 1)
            col_parts.append(vs[nxt])
            dat_parts.append(-np.ones(int(nxt.sum())))

            ss, ks = np.nonzero(r_mask)
            sink_rows = np.fromiter((int(node_pos[d]) for d in sinks),
                                    dtype=np.int64, count=len(sinks))
            row_parts.append(sink_rows[ss] * K + ks)
            col_parts.append(r_idx[r_mask])
            dat_parts.append(-np.ones(int(r_mask.sum())))

            flat = np.concatenate(row_parts)
            cols = np.concatenate(col_parts)
            data = np.concatenate(dat_parts)
            # epoch 0 at the origin is the initialization row, not this one
            keep = flat != origin_flat
            flat, cols, data = flat[keep], cols[keep], data[keep]
            present = np.zeros(G * K, dtype=bool)
            present[flat] = True  # trivial 0 == 0 rows never materialise
            row_of = np.cumsum(present) - 1
            model.add_constr_coo(row_of[flat], cols, data, 0.0, 0.0,
                                 num_rows=int(present.sum()))

    def _coo_switch_conservation(self, model: Model, per_q, src, dst, offs,
                                 sw_pos, SW: int, K: int) -> None:
        """Switches neither buffer nor consume: in(k) == out(k+1)."""
        for _q, f_mask, f_idx, *_rest in per_q:
            ls, ks = np.nonzero(f_mask)
            vs = f_idx[f_mask]
            into = sw_pos[dst[ls]] >= 0
            rows_in = sw_pos[dst[ls[into]]] * K + ks[into] + offs[ls[into]]
            out = (ks >= 1) & (sw_pos[src[ls]] >= 0)
            rows_out = sw_pos[src[ls[out]]] * K + ks[out] - 1
            flat = np.concatenate([rows_in, rows_out])
            cols = np.concatenate([vs[into], vs[out]])
            data = np.concatenate([np.ones(len(rows_in)),
                                   -np.ones(len(rows_out))])
            present = np.zeros(SW * K, dtype=bool)
            present[flat] = True
            row_of = np.cumsum(present) - 1
            model.add_constr_coo(row_of[flat], cols, data, 0.0, 0.0,
                                 num_rows=int(present.sum()))

    def _coo_capacity(self, model: Model, per_q, links, E: int, K: int,
                      ) -> None:
        """Per (link, epoch): total flow across commodities ≤ capacity."""
        present = np.zeros((E, K), dtype=bool)
        for _q, f_mask, *_rest in per_q:
            present |= f_mask
        flat_present = present.ravel()
        row_of = np.cumsum(flat_present) - 1
        row_parts, col_parts = [], []
        for _q, f_mask, f_idx, *_rest in per_q:
            ls, ks = np.nonzero(f_mask)
            row_parts.append(row_of[ls * K + ks])
            col_parts.append(f_idx[f_mask])
        rows = np.concatenate(row_parts)
        cols = np.concatenate(col_parts)
        caps = np.empty(int(flat_present.sum()))
        if self.config.capacity_fn is None:
            per_link = np.fromiter((self.plan.cap_chunks[link]
                                    for link in links),
                                   dtype=float, count=E)
            caps[:] = np.repeat(per_link, K)[flat_present]
        else:
            ls, ks = np.nonzero(present)
            for out, (l, k) in enumerate(zip(ls.tolist(), ks.tolist())):
                i, j = links[l]
                caps[out] = self._capacity_value(i, j, k)
        model.add_constr_coo(rows, cols, np.ones(len(rows)), -np.inf, caps,
                             num_rows=len(caps))

    def _coo_demand_met(self, model: Model, per_q, K: int) -> None:
        """Each sink reads exactly its demanded amount over the horizon."""
        rows, cols, amounts = [], [], []
        r = 0
        for q, _f_mask, _f_idx, _b_mask, _b_idx, sinks, r_mask, r_idx \
                in per_q:
            for s, d in enumerate(sinks):
                reads = r_idx[s][r_mask[s]]
                if not len(reads):
                    raise InfeasibleError(
                        f"sink {d} cannot be reached within the horizon",
                        status="horizon")
                cols.extend(reads.tolist())
                rows.extend([r] * len(reads))
                amounts.append(q.sinks[d])
                r += 1
        bounds = np.asarray(amounts, dtype=float)
        model.add_constr_coo(rows, cols, np.ones(len(cols)), bounds, bounds,
                             num_rows=r)

    def _coo_buffer_limit(self, model: Model, per_q, gpus, G: int, K: int,
                          ) -> None:
        limit = self.config.buffer_limit_chunks
        if limit is None:
            return
        row_parts, col_parts = [], []
        present = np.zeros(G * (K + 1), dtype=bool)
        for q, _f_mask, _f_idx, b_mask, b_idx, *_rest in per_q:
            relay = b_mask.copy()
            relay[gpus.index(q.origin), :] = False  # sources are exempt
            ns, ks = np.nonzero(relay)
            flat = ns * (K + 1) + ks
            present[flat] = True
            row_parts.append(flat)
            col_parts.append(b_idx[relay])
        row_of = np.cumsum(present) - 1
        rows = np.concatenate([row_of[flat] for flat in row_parts])
        cols = np.concatenate(col_parts)
        model.add_constr_coo(rows, cols, np.ones(len(rows)), -np.inf,
                             float(limit), num_rows=int(present.sum()))

    def _coo_objective(self, model: Model, per_q) -> None:
        """Maximise weighted reads, earlier epochs worth more (1/(k+1))."""
        idx_parts, coef_parts = [], []
        priorities = self.config.priorities is not None
        for q, _f_mask, _f_idx, _b_mask, _b_idx, sinks, r_mask, r_idx \
                in per_q:
            ss, ks = np.nonzero(r_mask)
            if priorities and isinstance(q.key, tuple):
                s_id, chunk = q.key
                weights = np.fromiter(
                    (self.config.weight(s_id, chunk, d) for d in sinks),
                    dtype=float, count=len(sinks))
                coef_parts.append(weights[ss] / (ks + 1))
            else:
                coef_parts.append(1.0 / (ks + 1))
            idx_parts.append(r_idx[r_mask])
        model.set_objective_array(np.concatenate(idx_parts),
                                  np.concatenate(coef_parts))


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
        lo = 1
        for q in self.commodities:
            earliest = self.builder._earliest[q.origin]
            for d in q.sinks:
                e = earliest.get(d)
                if e is not None:
                    lo = max(lo, e)
        return lo

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
    """One LP at one horizon: build → quotient → solve → extract → vet.

    The only place a built :class:`LpProblem` becomes a solved, vetted
    :class:`LpOutcome`; :func:`solve_lp`, the cold horizon search and POP's
    partitions all land here. A horizon too short for the demand — caught
    by the builder's earliest-arrival pre-check or proved by the solver —
    raises :class:`InfeasibleError` with ``status="horizon"``; any other
    solver failure raises with the backend's status.
    """
    builder = LpBuilder(topology, demand, config, plan, aggregate=aggregate)
    start = time.perf_counter()
    problem = builder.build()
    build_time = time.perf_counter() - start
    result, reduced = _solve_maybe_reduced(problem, topology, demand, config)
    if result.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(
            f"infeasible at horizon K={plan.num_epochs}", status="horizon")
    result.require_solution()
    outcome = extract_lp_outcome(problem, result)
    if reduced:
        outcome = _vet_reduced_outcome(outcome, problem, topology, demand,
                                       config)
    outcome.result.stats["build_time"] = build_time
    return outcome


def _solve_maybe_reduced(problem: LpProblem, topology: Topology,
                         demand: Demand,
                         config: TecclConfig) -> tuple[SolveResult, bool]:
    """Solve the LP, through the symmetry quotient when one applies.

    Returns ``(result, reduced)``; ``reduced`` flags a lifted quotient
    solution that still needs the conformance vetting in
    :func:`_vet_reduced_outcome`. Any failure to find or verify symmetry
    falls through to the ordinary full-model solve.
    """
    from repro.core import symmetry as _symmetry

    if _symmetry.symmetry_enabled(config.solver, problem.model.num_vars):
        generators = _symmetry.find_generators(topology, demand)
        if generators:
            orbit_map = _symmetry.reduce_lp(
                problem.model, generators, problem.model.num_vars,
                problem.f_vars, problem.b_vars, problem.r_vars)
            if orbit_map is not None:
                orbit_map.stats["symmetry_group_order"] = generators.order
                result = _symmetry.solve_reduced(orbit_map, config.solver)
                return result, True
    return problem.model.solve(config.solver), False


def _vet_reduced_outcome(outcome: LpOutcome, problem: LpProblem,
                         topology: Topology, demand: Demand,
                         config: TecclConfig) -> LpOutcome:
    """Replay-vet a lifted quotient solution; cold fallback on violation.

    The quotient is exact for a symmetric LP, so a violation here means a
    verification layer was fooled (or the instance was not actually
    symmetric) — the full model is re-solved from scratch and *that*
    result returned, so symmetry can degrade performance but never
    correctness.
    """
    from repro.core import symmetry as _symmetry
    from repro.simulate import check_flow

    report = check_flow(outcome.schedule, topology, demand, outcome.plan,
                        config=config)
    if report.ok:
        outcome.result.stats["symmetry_conformant"] = True
        return outcome
    _symmetry.note_fallback()
    _obs_event("symmetry.fallback", reason="conformance",
               violations=len(report.violations))
    result = problem.model.solve(config.solver)
    result.stats["symmetry_fallback"] = "conformance"
    result.require_solution()
    return extract_lp_outcome(problem, result)


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
    The result is replayed through the conformance oracle before it is
    returned; a violation falls back to :func:`_minimize_epochs_cold`,
    which builds and solves a fresh model per probe.
    """
    def anchor_at(num_epochs: int):
        inc = IncrementalLp(topology, demand, config, num_epochs)
        result = inc.solve_at(num_epochs)
        if not result.status.has_solution:
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
        if result.status.has_solution:
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

    # PR 3 conformance gate: a bound-restricted result never reaches a
    # caller unchecked. A replay violation (a bug in the restriction
    # machinery, not in the solver) falls back to the cold search.
    from repro.simulate import check_flow

    report = check_flow(outcome.schedule, topology, demand, outcome.plan,
                        config=config)
    if not report.ok:
        return _minimize_epochs_cold(topology, demand, config,
                                     inc.num_epochs)
    return outcome


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
        except InfeasibleError:
            lo = mid + 1
    if best is None:
        raise InfeasibleError(
            f"no feasible horizon up to K={max_epochs}", status="horizon")
    return best
