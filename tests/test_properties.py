"""Property-based tests (hypothesis): invariants over random instances.

Strategy: generate small random strongly-connected topologies and random
demands, run the full synthesize → prune → simulate pipeline, and assert the
invariants the paper's correctness rests on:

* every solver's schedule passes the independent simulator;
* pruning never breaks delivery and never adds bytes;
* the LP (optimal, no copy) never beats the MILP (optimal, with copy);
* heuristics never beat the exact formulations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import collectives, topology
from repro.core import TecclConfig, solve_lp, solve_milp
from repro.core.astar import solve_astar
from repro.core.config import AStarConfig
from repro.core.epochs import build_epoch_plan, path_based_epoch_bound
from repro.errors import InfeasibleError
from repro.simulate import check_schedule
from repro.solver import Model, Sense, SolverOptions

_LIMIT = SolverOptions(time_limit=20.0)

SETTINGS = settings(max_examples=8, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def small_topology(draw) -> topology.Topology:
    """A strongly connected digraph: a directed ring plus random chords."""
    n = draw(st.integers(min_value=3, max_value=5))
    topo = topology.Topology("prop", num_nodes=n)
    caps = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n))
    for i in range(n):
        topo.add_link(i, (i + 1) % n, caps[i])
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=4))
    for (i, j) in extra:
        if i != j and not topo.has_link(i, j):
            topo.add_link(i, j, 1.0,
                          alpha=draw(st.sampled_from([0.0, 1.0])))
    return topo


@st.composite
def topology_and_demand(draw):
    topo = draw(small_topology())
    gpus = topo.gpus
    kind = draw(st.sampled_from(["allgather", "alltoall", "broadcast",
                                 "random"]))
    if kind == "allgather":
        demand = collectives.allgather(gpus, 1)
    elif kind == "alltoall":
        demand = collectives.alltoall(gpus, 1)
    elif kind == "broadcast":
        demand = collectives.broadcast(gpus[0], gpus[1:], 1)
    else:
        triples = draw(st.lists(
            st.tuples(st.sampled_from(gpus), st.integers(0, 1),
                      st.sampled_from(gpus)),
            min_size=1, max_size=6).map(
                lambda ts: [(s, c, d) for (s, c, d) in ts if s != d]))
        if not triples:
            triples = [(gpus[0], 0, gpus[1])]
        demand = collectives.Demand.from_triples(triples)
    return topo, demand


def horizon_for(topo, demand, cfg, *, copy=None) -> int:
    """The first auto-horizon rung, fed back as an explicit ``num_epochs``;
    a no-copy LP on a multicast demand must ask for ``copy=False``."""
    probe = build_epoch_plan(topo, cfg, 1)
    return path_based_epoch_bound(topo, demand, probe, copy=copy)


def min_time_seconds(topo, chunk_bytes: float) -> dict[int, dict[int, float]]:
    """All-pairs fastest single-chunk delivery time (α + β·S per hop): the
    physics oracle no schedule may beat."""
    import heapq

    out_adj, _ = topo.adjacency()
    dist: dict[int, dict[int, float]] = {}
    for src in topo.nodes:
        d = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            cost, node = heapq.heappop(heap)
            if cost > d.get(node, float("inf")):
                continue
            for link in out_adj[node]:
                new = cost + link.transfer_time(chunk_bytes)
                if new < d.get(link.dst, float("inf")):
                    d[link.dst] = new
                    heapq.heappush(heap, (new, link.dst))
        dist[src] = d
    return dist


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
class TestMilpProperties:
    @pytest.mark.slow
    @SETTINGS
    @given(topology_and_demand())
    def test_milp_schedule_always_simulates_clean(self, case):
        topo, demand = case
        cfg = TecclConfig(chunk_bytes=1.0, solver=_LIMIT,
                          num_epochs=horizon_for(topo, demand,
                                                 TecclConfig(chunk_bytes=1.0)))
        out = solve_milp(topo, demand, cfg)
        report = check_schedule(out.schedule, topo, demand, out.plan)
        assert report.ok, report.violations

    @pytest.mark.slow
    @SETTINGS
    @given(topology_and_demand())
    def test_pruning_only_removes(self, case):
        topo, demand = case
        cfg = TecclConfig(chunk_bytes=1.0, solver=_LIMIT,
                          num_epochs=horizon_for(topo, demand,
                                                 TecclConfig(chunk_bytes=1.0)))
        out = solve_milp(topo, demand, cfg)
        raw_set = set(out.raw_schedule.sends)
        assert set(out.schedule.sends) <= raw_set
        assert out.schedule.finish_time(topo) <= \
            out.raw_schedule.finish_time(topo) + 1e-9

    @SETTINGS
    @given(topology_and_demand())
    def test_no_copy_lp_ships_one_copy_per_triple(self, case):
        """The no-copy LP can never ship less than one full copy per
        demanded triple — that floor is exactly what in-network copy
        removes. (The MILP's bytes are *not* comparable: it optimises
        time and may buy speed with longer detours.)"""
        topo, demand = case
        cfg = TecclConfig(chunk_bytes=1.0, solver=_LIMIT,
                          num_epochs=horizon_for(
                              topo, demand, TecclConfig(chunk_bytes=1.0),
                              copy=False))
        lp = solve_lp(topo, demand, cfg, aggregate=False)
        assert lp.schedule.total_bytes() >= \
            demand.num_triples * cfg.chunk_bytes - 1e-6

    @SETTINGS
    @given(topology_and_demand())
    def test_milp_ships_at_least_one_copy_per_commodity(self, case):
        """Even with copy, every demanded commodity must leave its source
        at least once (nothing is created out of thin air, Figure 3)."""
        topo, demand = case
        cfg = TecclConfig(chunk_bytes=1.0, solver=_LIMIT,
                          num_epochs=horizon_for(topo, demand,
                                                 TecclConfig(chunk_bytes=1.0)))
        milp = solve_milp(topo, demand, cfg)
        for (s, c) in demand.commodities():
            out_of_source = [snd for snd in milp.schedule.sends
                             if snd.commodity == (s, c) and snd.src == s]
            assert out_of_source, f"commodity ({s},{c}) never left {s}"


class TestAstarProperties:
    @SETTINGS
    @given(topology_and_demand())
    def test_astar_schedule_always_simulates_clean(self, case):
        topo, demand = case
        cfg = TecclConfig(chunk_bytes=1.0, solver=_LIMIT)
        try:
            out = solve_astar(topo, demand, cfg,
                              AStarConfig(epochs_per_round=4, max_rounds=32))
        except InfeasibleError:
            pytest.skip("round budget too small for this instance")
        report = check_schedule(out.schedule, topo, demand, out.plan)
        assert report.ok, report.violations

    @pytest.mark.slow
    @SETTINGS
    @given(topology_and_demand())
    def test_finish_times_respect_path_lower_bound(self, case):
        """No solver may beat physics: the slowest demanded pair's
        α+β shortest-path time lower-bounds every finish.

        (A* vs MILP ordering is *not* asserted: the paper's Σ R/(k+1)
        objective is a proxy for completion time, so the MILP optimum does
        not always minimise the makespan and A* can legitimately produce a
        shorter schedule.)
        """
        topo, demand = case
        seconds = min_time_seconds(topo, 1.0)
        bound = max(seconds[s][d] for s, c in demand.commodities()
                    for d in demand.destinations(s, c))
        cfg = TecclConfig(chunk_bytes=1.0, solver=_LIMIT,
                          num_epochs=horizon_for(topo, demand,
                                                 TecclConfig(chunk_bytes=1.0)))
        opt = solve_milp(topo, demand, cfg)
        assert opt.finish_time >= bound - 1e-9
        try:
            approx = solve_astar(topo, demand,
                                 TecclConfig(chunk_bytes=1.0, solver=_LIMIT),
                                 AStarConfig(epochs_per_round=4,
                                             max_rounds=32))
        except InfeasibleError:
            pytest.skip("round budget too small for this instance")
        assert approx.finish_time >= bound - 1e-9


class TestLpProperties:
    @SETTINGS
    @given(topology_and_demand())
    def test_lp_meets_all_demands(self, case):
        topo, demand = case
        cfg = TecclConfig(chunk_bytes=1.0, solver=_LIMIT,
                          num_epochs=horizon_for(
                              topo, demand, TecclConfig(chunk_bytes=1.0),
                              copy=False))
        out = solve_lp(topo, demand, cfg, aggregate=False)
        for s, c in demand.commodities():
            for d in demand.destinations(s, c):
                assert out.schedule.delivered((s, c), d) == \
                    pytest.approx(1.0, abs=1e-5)

    @SETTINGS
    @given(topology_and_demand())
    def test_lp_capacity_never_violated(self, case):
        topo, demand = case
        cfg = TecclConfig(chunk_bytes=1.0, solver=_LIMIT,
                          num_epochs=horizon_for(
                              topo, demand, TecclConfig(chunk_bytes=1.0),
                              copy=False))
        out = solve_lp(topo, demand, cfg, aggregate=False)
        for (i, j) in topo.links:
            for k in range(out.plan.num_epochs):
                assert out.schedule.link_load(i, j, k) <= \
                    out.plan.cap_chunks[(i, j)] + 1e-6


class TestSolverLayerProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.1, 10), st.floats(0.1, 10)),
                    min_size=1, max_size=8))
    def test_lp_relaxation_upper_bounds_milp(self, items):
        """For any knapsack, the LP relaxation dominates the MILP optimum."""
        from repro.solver import VarType

        budget = sum(w for w, _ in items) / 2

        def build(integral: bool):
            m = Model(sense=Sense.MAXIMIZE)
            xs = m.add_var_array(len(items), ub=1.0,
                                 vtype=VarType.BINARY if integral
                                 else VarType.CONTINUOUS)
            m.add_constr_coo(np.zeros(len(xs)), xs, [w for w, _ in items],
                             -np.inf, budget)
            m.set_objective_array(xs, [v for _, v in items])
            return m.solve(SolverOptions())

        relaxed = build(False)
        integral = build(True)
        assert relaxed.objective >= integral.objective - 1e-6
