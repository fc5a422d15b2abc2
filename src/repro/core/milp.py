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
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.collectives.demand import Demand
from repro.core.columns import ColumnTable
from repro.core.config import SwitchModel, TecclConfig
from repro.core.epochs import (EpochPlan, build_epoch_plan,
                               earliest_arrival_epochs,
                               first_feasible_rung, horizon_ladder)
from repro.core.postprocess import prune_sends
from repro.core.schedule import Schedule, Send
from repro.errors import InfeasibleError, ModelError
from repro.obs.trace import event as _obs_event
from repro.obs.trace import span as _obs_span
from repro.solver import Model, Sense, SolveResult, SolveStatus, VarType
from repro.topology.topology import Topology
from repro.topology.transforms import HyperEdgeGroup

_EPS = 1e-9

#: sentinel "unreachable" epoch, far beyond any horizon
_FAR = 1 << 30

Commodity = tuple[int, int]


def _ranges_take(left: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices covering ``[left[i], left[i] + counts[i])`` for every i.

    The standard vectorized expansion of per-row ranges — used to join flow
    variables onto the constraint rows they arrive in without Python loops.
    """
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    stops = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(stops - counts,
                                                           counts)
    return np.repeat(left, counts) + offsets


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
    #: earliest buffer epoch per (commodity, node)
    earliest: dict[tuple[Commodity, int], int] = field(default_factory=dict)


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
                        holders: dict[Commodity, list[tuple[int, int]]],
                        tighten: bool = True,
                        ) -> dict[tuple[Commodity, int], int]:
    """Multi-source earliest-arrival (in buffer epochs) per commodity.

    With ``tighten=False`` only reachability is kept (every reachable node
    gets bound 0) — the dense model of a naive implementation, used by the
    variable-elimination ablation bench.
    """
    per_node = earliest_arrival_epochs(topology, plan)
    earliest: dict[tuple[Commodity, int], int] = {}
    for q, starts in holders.items():
        for node in topology.nodes:
            best = min((offset + per_node[h].get(node, 1 << 30)
                        for h, offset in starts), default=1 << 30)
            if best < (1 << 30):
                earliest[(q, node)] = best if tighten else 0
    return earliest


class MilpBuilder:
    """Builds the §3.1 MILP for one (topology, demand, horizon) instance.

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
        holders = {
            q: ([(h, 0) for h in self.initial_holders.get(q, set())]
                + [(n, k) for (s, c, n, k) in self.injections
                   if (s, c) == q])
            for q in self.commodities}
        self.earliest = _commodity_earliest(topology, plan, holders,
                                            tighten=config.tighten)

    # ------------------------------------------------------------------
    def build(self) -> MilpProblem:
        with _obs_span("milp.build", epochs=self.plan.num_epochs,
                       commodities=len(self.commodities)):
            self._precheck_horizon()
            model = Model("teccl-milp", sense=Sense.MAXIMIZE)
            problem = MilpProblem(model=model, plan=self.plan,
                                  topology=self.topology, demand=self.demand,
                                  config=self.config, earliest=self.earliest)
            self._build_coo(problem)
            return problem

    def _precheck_horizon(self) -> None:
        if not self.require_completion:
            return
        K = self.plan.num_epochs
        for s, c in self.commodities:
            for d in self.demand.destinations(s, c):
                earliest = self.earliest.get(((s, c), d))
                if earliest is None:
                    raise ModelError(
                        f"destination {d} unreachable for commodity ({s},{c})")
                if earliest > K:
                    raise InfeasibleError(
                        f"horizon K={K} below the earliest possible arrival "
                        f"({earliest} epochs) for ({s},{c})->{d}",
                        status="horizon")

    # ------------------------------------------------------------------
    # vectorized (COO) construction — no per-term Python objects
    # ------------------------------------------------------------------
    def _capacity_value(self, i: int, j: int, k: int) -> float:
        if self.config.capacity_fn is not None:
            return (self.config.capacity_fn(i, j, k) * self.plan.tau
                    / self.config.chunk_bytes)
        return self.plan.cap_chunks[(i, j)]

    def _build_coo(self, problem: MilpProblem) -> None:
        """Emit the §3.1 MILP as COO blocks via NumPy index arithmetic.

        Column order is all ``F`` (commodity, link, epoch), then all ``B``
        (commodity, GPU, epoch), then all ``R`` (commodity, destination,
        epoch); constraint families append in the order of the spans below.
        ``tests/test_model_equivalence.py`` pins the compiled matrices.
        """
        model = problem.model
        topo, plan, K = self.topology, self.plan, self.plan.num_epochs
        links = list(topo.links)
        E = len(links)
        src = np.fromiter((i for i, _ in links), dtype=np.int64, count=E)
        dst = np.fromiter((j for _, j in links), dtype=np.int64, count=E)
        offs = np.fromiter((plan.arrival_offset(i, j) for i, j in links),
                           dtype=np.int64, count=E)
        switch_dst = np.fromiter((topo.is_switch(j) for _, j in links),
                                 dtype=bool, count=E)
        gpus = list(topo.gpus)
        G = len(gpus)
        gpu_ids = np.asarray(gpus, dtype=np.int64)
        num_nodes = len(topo.nodes)
        node_pos = np.full(num_nodes, -1, dtype=np.int64)
        node_pos[gpu_ids] = np.arange(G)
        k_send = np.arange(K, dtype=np.int64)
        sf = self.config.store_and_forward
        # a send into a switch must be forwardable at its arrival epoch; a
        # send to a GPU must land within the horizon, unless the next A*
        # round takes the overhang (then any send epoch k <= K - 1 is open)
        arrival_cap = np.where(switch_dst, K - 1,
                               K + offs if self.allow_overhang else K)

        # -- flow variables, all commodities first
        f_grids = []
        base = 0
        for q in self.commodities:
            earliest = np.full(num_nodes, _FAR, dtype=np.int64)
            for node in topo.nodes:
                found = self.earliest.get((q, node))
                if found is not None:
                    earliest[node] = found
            f_mask = ((earliest[src][:, None] <= k_send[None, :])
                      & (k_send[None, :] + offs[:, None] + 1
                         <= arrival_cap[:, None]))
            f_idx = np.full((E, K), -1, dtype=np.int64)
            nf = int(np.count_nonzero(f_mask))
            f_idx[f_mask] = base + np.arange(nf)
            base += nf
            f_grids.append((earliest, f_mask, f_idx))
        model.add_var_array(base, vtype=VarType.BINARY, name="F")

        # -- buffer variables: B[q,n,0] is fixed to 1 for initial holders
        #    and 0 otherwise
        b_grids = []
        b_lb_parts, b_ub_parts = [], []
        b_base = base
        for q, (earliest, _f_mask, _f_idx) in zip(self.commodities, f_grids):
            start = np.maximum(earliest[gpu_ids], 0)
            b_mask = np.arange(K + 1)[None, :] >= start[:, None]
            b_idx = np.full((G, K + 1), -1, dtype=np.int64)
            nb = int(np.count_nonzero(b_mask))
            b_idx[b_mask] = base + np.arange(nb)
            base += nb
            holder = np.zeros(G, dtype=bool)
            for n in self.initial_holders.get(q, set()):
                if node_pos[n] >= 0:  # switch holders never buffer
                    holder[int(node_pos[n])] = True
            lb = np.zeros((G, K + 1))
            ub = np.ones((G, K + 1))
            lb[:, 0] = np.where(holder, 1.0, 0.0)
            ub[:, 0] = np.where(holder, 1.0, 0.0)
            b_lb_parts.append(lb[b_mask])
            b_ub_parts.append(ub[b_mask])
            b_grids.append((b_mask, b_idx))
        model.add_var_array(
            base - b_base,
            lb=(np.concatenate(b_lb_parts) if b_lb_parts
                else np.empty(0)),
            ub=(np.concatenate(b_ub_parts) if b_ub_parts
                else np.empty(0)),
            vtype=VarType.BINARY, name="B")

        # -- read variables, contiguous in (q, d, k) order; the last epoch
        #    must read 1 unless an A* round may end with demand outstanding
        r_meta = []  # (q, d, first_k, index array)
        r_lb_parts = []
        r_base = base
        for q in self.commodities:
            for d in self.demand.destinations(*q):
                first_k = max(0, self.earliest.get((q, d), _FAR) - 1)
                count = max(0, K - first_k)
                idx = base + np.arange(count)
                base += count
                lb = np.zeros(count)
                if count and self.require_completion:
                    lb[-1] = 1.0
                r_lb_parts.append(lb)
                r_meta.append((q, d, first_k, idx))
        model.add_var_array(
            base - r_base,
            lb=(np.concatenate(r_lb_parts) if r_lb_parts
                else np.empty(0)),
            ub=1.0, name="R")

        # -- key tables for symmetry and extraction
        for q, (_e, f_mask, f_idx), (b_mask, b_idx) in zip(
                self.commodities, f_grids, b_grids):
            ls, ks = np.nonzero(f_mask)
            problem.f_vars.append(q, src[ls], ks, f_idx[f_mask],
                                  node2=dst[ls])
            ns, ks = np.nonzero(b_mask)
            problem.b_vars.append(q, gpu_ids[ns], ks, b_idx[b_mask])
        for q, d, first_k, idx in r_meta:
            problem.r_vars.append(q, d, np.arange(first_k, K), idx)

        with _obs_span("milp.family.buffer_recurrence"):
            self._coo_buffer_recurrence(model, f_grids, b_grids, src, dst,
                                        offs, node_pos, G, K)
        with _obs_span("milp.family.availability"):
            self._coo_availability(model, f_grids, b_grids, src, dst, offs,
                                   node_pos, num_nodes, K, sf)
        with _obs_span("milp.family.switch_constraints"):
            self._coo_switch_constraints(model, f_grids, links, src, dst,
                                         offs, K)
        with _obs_span("milp.family.capacity"):
            self._coo_capacity(model, f_grids, links, E, K)
        with _obs_span("milp.family.destination"):
            self._coo_destination(model, r_meta, b_grids, node_pos, K)
        with _obs_span("milp.family.buffer_limit"):
            self._coo_buffer_limit(model, b_grids, node_pos, G, K)
        with _obs_span("milp.family.hyper_edge_limits"):
            self._coo_hyper_edge_limits(model, f_grids, links, K)
        with _obs_span("milp.family.objective"):
            self._coo_objective(model, r_meta, K)

    def _coo_buffer_recurrence(self, model, f_grids, b_grids, src, dst, offs,
                               node_pos, G: int, K: int) -> None:
        """``B[k] ≤ arrivals(k) + B[k−1]`` for every buffer var with k ≥ 1;
        chunks injected mid-horizon (in flight since the previous A* round)
        count as arrivals — constants on the right-hand side."""
        for (q, (_e, f_mask, f_idx)), (b_mask, b_idx) in zip(
                zip(self.commodities, f_grids), b_grids):
            rec_mask = b_mask.copy()
            rec_mask[:, 0] = False
            n_rows = int(np.count_nonzero(rec_mask))
            row_grid = np.full((G, K + 1), -1, dtype=np.int64)
            row_grid[rec_mask] = np.arange(n_rows)
            rows = [row_grid[rec_mask]]
            cols = [b_idx[rec_mask]]
            data = [np.ones(n_rows)]
            # B[k-1], where it exists
            prev = rec_mask[:, 1:] & b_mask[:, :-1]
            ns, ks = np.nonzero(prev)
            rows.append(row_grid[ns, ks + 1])
            cols.append(b_idx[ns, ks])
            data.append(-np.ones(len(ns)))
            # arrivals: a send on (i, j) at k' reaches j's buffer at k'+Δ+1
            ls, ks = np.nonzero(f_mask)
            vs = f_idx[f_mask]
            # (overhanging sends land past K: in no row of this horizon)
            lands = (node_pos[dst[ls]] >= 0) & (ks + offs[ls] + 1 <= K)
            ls, ks, vs = ls[lands], ks[lands], vs[lands]
            target = row_grid[node_pos[dst[ls]], ks + offs[ls] + 1]
            landed = target >= 0
            rows.append(target[landed])
            cols.append(vs[landed])
            data.append(-np.ones(int(landed.sum())))
            injected = np.zeros((G, K + 1))
            for (s, c, n, k), count in self.injections.items():
                if (s, c) == q and 0 <= k <= K:
                    injected[int(node_pos[n]), k] = count
            model.add_constr_coo(np.concatenate(rows), np.concatenate(cols),
                                 np.concatenate(data), -np.inf,
                                 injected[rec_mask], num_rows=n_rows)

    def _coo_availability(self, model, f_grids, b_grids, src, dst, offs,
                          node_pos, num_nodes: int, K: int, sf: bool) -> None:
        """GPU sends need the chunk buffered (or, without store-and-forward,
        arriving) — one row per flow variable leaving a GPU."""
        for (q, (_e, f_mask, f_idx)), (b_mask, b_idx) in zip(
                zip(self.commodities, f_grids), b_grids):
            ls, ks = np.nonzero(f_mask)
            vs = f_idx[f_mask]
            from_gpu = node_pos[src[ls]] >= 0
            lo, ko, vo = ls[from_gpu], ks[from_gpu], vs[from_gpu]
            n_rows = len(vo)
            row_ids = np.arange(n_rows)
            rows = [row_ids]
            cols = [vo]
            data = [np.ones(n_rows)]
            held = np.zeros(num_nodes, dtype=bool)
            for n in self.initial_holders.get(q, set()):
                held[n] = True
            avail = np.full(n_rows, True) if sf else held[src[lo]]
            if avail.any():
                bb = b_idx[node_pos[src[lo[avail]]], ko[avail]]
                okb = bb >= 0
                rows.append(row_ids[avail][okb])
                cols.append(bb[okb])
                data.append(-np.ones(int(okb.sum())))
            relay = ~avail
            if relay.any():
                # Figure 9 ablation: forward only what arrives this epoch
                land_gpu = (node_pos[dst[ls]] >= 0) \
                    & (ks + offs[ls] + 1 <= K)
                key_in = (node_pos[dst[ls[land_gpu]]] * (K + 1)
                          + ks[land_gpu] + offs[ls[land_gpu]] + 1)
                order = np.argsort(key_in, kind="stable")
                sorted_key = key_in[order]
                sorted_col = vs[land_gpu][order]
                key_out = node_pos[src[lo[relay]]] * (K + 1) + ko[relay]
                left = np.searchsorted(sorted_key, key_out, "left")
                counts = np.searchsorted(sorted_key, key_out, "right") - left
                take = _ranges_take(left, counts)
                rows.append(np.repeat(row_ids[relay], counts))
                cols.append(sorted_col[take])
                data.append(-np.ones(len(take)))
            model.add_constr_coo(np.concatenate(rows), np.concatenate(cols),
                                 np.concatenate(data), -np.inf, 0.0,
                                 num_rows=n_rows)

    def _coo_switch_constraints(self, model, f_grids, links, src, dst, offs,
                                K: int) -> None:
        """Zero-buffer switches: out(k+1) bounded by in(k), with or without
        copy; rows are ordered by (switch, commodity, epoch)."""
        switches = list(self.topology.switches)
        if not switches:
            return
        copy_ok = self.config.switch_model is SwitchModel.COPY
        link_pos = {link: l for l, link in enumerate(links)}
        for sw in switches:
            out_rank = np.full(len(links), 1 << 20, dtype=np.int64)
            for rank, link in enumerate(self.topology.out_edges(sw)):
                out_rank[link_pos[(sw, link.dst)]] = rank
            for q, (_e, f_mask, f_idx) in zip(self.commodities, f_grids):
                ls, ks = np.nonzero(f_mask)
                vs = f_idx[f_mask]
                souts = src[ls] == sw
                lo, ko, vo = ls[souts], ks[souts], vs[souts]
                if not len(vo):
                    continue
                order = np.lexsort((out_rank[lo], ko))
                lo, ko, vo = lo[order], ko[order], vo[order]
                ins = dst[ls] == sw
                key_in = ks[ins] + offs[ls[ins]] + 1
                order_in = np.argsort(key_in, kind="stable")
                sorted_key = key_in[order_in]
                sorted_col = vs[ins][order_in]
                if copy_ok:
                    n_rows = len(vo)
                    row_of_out = np.arange(n_rows)
                    row_key = ko
                else:
                    epochs = np.unique(ko)
                    n_rows = len(epochs)
                    row_map = np.full(K, -1, dtype=np.int64)
                    row_map[epochs] = np.arange(n_rows)
                    row_of_out = row_map[ko]
                    row_key = epochs
                left = np.searchsorted(sorted_key, row_key, "left")
                counts = np.searchsorted(sorted_key, row_key, "right") - left
                take = _ranges_take(left, counts)
                rows = np.concatenate([row_of_out,
                                       np.repeat(np.arange(n_rows), counts)])
                cols = np.concatenate([vo, sorted_col[take]])
                data = np.concatenate([np.ones(len(vo)),
                                       -np.ones(len(take))])
                model.add_constr_coo(rows, cols, data, -np.inf, 0.0,
                                     num_rows=n_rows)

    def _coo_capacity(self, model, f_grids, links, E: int, K: int) -> None:
        """Per-link capacity, windowed over κ epochs where occupancy > 1;
        a window reaching back before epoch 0 loses what the previous A*
        round's transmissions still occupy (``capacity_carry``)."""
        f_idx_all = np.stack([grid[2] for grid in f_grids])  # (Q, E, K)
        any_f = (f_idx_all >= 0).any(axis=0)
        row_parts, col_parts, uppers = [], [], []
        row_counter = 0
        for l, (i, j) in enumerate(links):
            kappa = self.plan.occupancy[(i, j)]
            sel = f_idx_all[:, l, :] >= 0  # (Q, K)
            if not sel.any():
                continue
            qs, ks = np.nonzero(sel)
            vs = f_idx_all[:, l, :][sel]
            if kappa == 1:
                k_idx = np.nonzero(any_f[l])[0]
                row_map = np.full(K, -1, dtype=np.int64)
                row_map[k_idx] = row_counter + np.arange(len(k_idx))
                row_parts.append(row_map[ks])
                col_parts.append(vs)
                uppers.extend(
                    float(math.floor(self._capacity_value(i, j, int(k))
                                     + _EPS))
                    for k in k_idx)
            else:
                # a send at k' occupies the wire through k' + κ − 1
                present = np.zeros(K, dtype=bool)
                for shift in range(kappa):
                    present[shift:] |= any_f[l][:K - shift]
                k_idx = np.nonzero(present)[0]
                row_map = np.full(K, -1, dtype=np.int64)
                row_map[k_idx] = row_counter + np.arange(len(k_idx))
                span = (ks[:, None] + np.arange(kappa)[None, :]).ravel()
                span_v = np.repeat(vs, kappa)
                inside = span <= K - 1
                row_parts.append(row_map[span[inside]])
                col_parts.append(span_v[inside])
                uppers.extend(
                    float(max(1, math.floor(
                        kappa * self._capacity_value(i, j, int(k)) + _EPS))
                          - sum(self.capacity_carry.get((i, j, kk), 0)
                                for kk in range(int(k) - kappa + 1, 0)))
                    for k in k_idx)
            row_counter += len(k_idx)
        if row_counter:
            model.add_constr_coo(np.concatenate(row_parts),
                                 np.concatenate(col_parts),
                                 np.ones(sum(len(p) for p in col_parts)),
                                 -np.inf, np.asarray(uppers),
                                 num_rows=row_counter)

    def _coo_destination(self, model, r_meta, b_grids, node_pos, K: int,
                         ) -> None:
        """``R[q,d,k] ≤ B[q,d,k+1]`` — read only once the chunk is there."""
        grid_of = {q: grid for q, grid in zip(self.commodities, b_grids)}
        rows, cols, data = [], [], []
        row = 0
        for q, d, first_k, idx in r_meta:
            count = len(idx)
            row_ids = row + np.arange(count)
            rows.append(row_ids)
            cols.append(idx)
            data.append(np.ones(count))
            _b_mask, b_idx = grid_of[q]
            bb = b_idx[int(node_pos[d]), first_k + 1:K + 1]
            okb = bb >= 0
            rows.append(row_ids[okb])
            cols.append(bb[okb])
            data.append(-np.ones(int(okb.sum())))
            row += count
        model.add_constr_coo(np.concatenate(rows), np.concatenate(cols),
                             np.concatenate(data), -np.inf, 0.0,
                             num_rows=row)

    def _coo_buffer_limit(self, model, b_grids, node_pos, G: int, K: int,
                          ) -> None:
        limit = self.config.buffer_limit_chunks
        if limit is None:
            return
        present = np.zeros(G * (K + 1), dtype=bool)
        flat_parts, col_parts = [], []
        for q, (b_mask, b_idx) in zip(self.commodities, b_grids):
            keep = b_mask.copy()
            # sources hold their data and destinations must keep theirs;
            # the limit governs the relay buffer only
            for n in self.initial_holders.get(q, set()):
                if node_pos[n] >= 0:
                    keep[int(node_pos[n]), :] = False
            for n in self.demand.destinations(*q):
                if node_pos[n] >= 0:
                    keep[int(node_pos[n]), :] = False
            ns, ks = np.nonzero(keep)
            flat = ns * (K + 1) + ks
            present[flat] = True
            flat_parts.append(flat)
            col_parts.append(b_idx[keep])
        row_of = np.cumsum(present) - 1
        rows = np.concatenate([row_of[flat] for flat in flat_parts])
        cols = np.concatenate(col_parts)
        model.add_constr_coo(rows, cols, np.ones(len(rows)), -np.inf,
                             float(limit), num_rows=int(present.sum()))

    def _coo_hyper_edge_limits(self, model, f_grids, links, K: int) -> None:
        if not self.hyper_groups:
            return
        f_idx_all = np.stack([grid[2] for grid in f_grids])  # (Q, E, K)
        link_pos = {link: l for l, link in enumerate(links)}

        def cols_at(edge: tuple[int, int], k: int) -> np.ndarray:
            column = f_idx_all[:, link_pos[edge], k]
            return column[column >= 0]

        rows, cols, uppers = [], [], []
        row = 0
        for group in self.hyper_groups:
            edges = group.edges
            out_by_node: dict[int, list[tuple[int, int]]] = {}
            in_by_node: dict[int, list[tuple[int, int]]] = {}
            for (i, j) in edges:
                out_by_node.setdefault(i, []).append((i, j))
                in_by_node.setdefault(j, []).append((i, j))
            for k in range(K):
                total = [cols_at(edge, k) for edge in edges]
                flat = np.concatenate(total) if total else np.empty(0, int)
                if len(flat):
                    cols.append(flat)
                    rows.append(np.full(len(flat), row))
                    uppers.append(float(group.usage_limit))
                    row += 1
                for node_edges in out_by_node.values():
                    flat = np.concatenate(
                        [cols_at(edge, k) for edge in node_edges])
                    if len(flat):
                        cols.append(flat)
                        rows.append(np.full(len(flat), row))
                        uppers.append(1.0)
                        row += 1
                for node_edges in in_by_node.values():
                    flat = np.concatenate(
                        [cols_at(edge, k) for edge in node_edges])
                    if len(flat):
                        cols.append(flat)
                        rows.append(np.full(len(flat), row))
                        uppers.append(1.0)
                        row += 1
        if row:
            all_cols = np.concatenate(cols)
            model.add_constr_coo(np.concatenate(rows), all_cols,
                                 np.ones(len(all_cols)), -np.inf,
                                 np.asarray(uppers), num_rows=row)

    def _coo_objective(self, model, r_meta, K: int) -> None:
        idx_parts, coef_parts = [], []
        for (s, c), d, first_k, idx in r_meta:
            weight = self.config.weight(s, c, d)
            idx_parts.append(idx)
            coef_parts.append(weight / (np.arange(first_k, K) + 1))
        model.set_objective_array(
            np.concatenate(idx_parts) if idx_parts else np.empty(0, int),
            np.concatenate(coef_parts) if coef_parts else np.empty(0))


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
    """One MILP at one horizon: build → lex cuts → solve → extract → vet.

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
    cuts, group_order = _maybe_add_symmetry_cuts(problem, topology, demand,
                                                 config)
    result = problem.model.solve(config.solver)
    result.stats["build_time"] = build_time
    if cuts:
        result.stats["symmetry_cuts"] = cuts
        result.stats["symmetry_group_order"] = group_order
    if result.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(
            f"infeasible at horizon K={plan.num_epochs}", status="horizon")
    result.require_solution()
    outcome = extract_outcome(problem, result)
    if cuts:
        outcome = _vet_cut_outcome(outcome, topology, demand, config, plan,
                                   hyper_groups)
    return outcome


def _maybe_add_symmetry_cuts(problem: MilpProblem, topology: Topology,
                             demand: Demand,
                             config: TecclConfig) -> tuple[int, int]:
    """Add lex-leader symmetry cuts to a built MILP when enabled.

    The quotient restriction used for LPs is invalid for integer programs,
    so the MILP path prunes symmetric branches with optimum-preserving
    cuts instead (``repro.core.symmetry.add_symmetry_cuts``). Returns the
    number of cut rows added (0 when symmetry is off, undetected, or
    fails verification) and the order of the detected group.
    """
    from repro.core import symmetry as _symmetry

    if not _symmetry.symmetry_enabled(config.solver,
                                      problem.model.num_vars):
        return 0, 1
    generators = _symmetry.find_generators(topology, demand)
    if not generators:
        return 0, 1
    cuts = _symmetry.add_symmetry_cuts(
        problem.model, generators, problem.model.num_vars,
        problem.f_vars, problem.b_vars, problem.r_vars)
    if cuts:
        # a cut-constrained solve is a symmetry-assisted solve: count it
        # so the alert engine's fallback-rate denominator covers both paths
        _symmetry.note_reduction()
    return cuts, generators.order


def _vet_cut_outcome(outcome: "MilpOutcome", topology: Topology,
                     demand: Demand, config: TecclConfig, plan: EpochPlan,
                     hyper_groups) -> "MilpOutcome":
    """Replay-vet a schedule solved under symmetry cuts.

    The cuts are optimum-preserving for any verified automorphism, so a
    violation means a verification layer was fooled — rebuild the model
    from scratch without cuts and return that solve instead. Symmetry can
    cost a redundant solve here but never a wrong schedule.
    """
    from repro.core import symmetry as _symmetry
    from repro.simulate import check_schedule

    report = check_schedule(outcome.schedule, topology, demand,
                            outcome.plan, config=config)
    if report.ok:
        outcome.result.stats["symmetry_conformant"] = True
        return outcome
    _symmetry.note_fallback()
    _obs_event("symmetry.fallback", reason="conformance",
               violations=len(report.violations))
    builder = MilpBuilder(topology, demand, config, plan,
                          hyper_groups=hyper_groups)
    problem = builder.build()
    result = problem.model.solve(config.solver)
    result.stats["symmetry_fallback"] = "conformance"
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
