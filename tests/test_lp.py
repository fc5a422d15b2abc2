"""Integration tests for the LP formulation (§4.1) and its scaling hooks."""

import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core import epochs as epochs_module
from repro.core.config import EpochMode
from repro.core.epochs import build_epoch_plan
from repro.core.lp import (LpBuilder, build_commodities, minimize_epochs_lp,
                           solve_lp)
from repro.errors import InfeasibleError

TOL = 1e-6


def cfg(num_epochs=None, **kwargs) -> TecclConfig:
    return TecclConfig(chunk_bytes=1.0, num_epochs=num_epochs, **kwargs)


class TestCommodities:
    def test_alltoall_aggregates_by_source(self):
        demand = collectives.alltoall([0, 1, 2], 2)
        commodities = build_commodities(demand)
        assert len(commodities) == 3
        q0 = next(q for q in commodities if q.key == 0)
        assert q0.supply == pytest.approx(4.0)  # 2 peers x 2 chunks
        assert q0.sinks == {1: 2.0, 2: 2.0}

    def test_multicast_uses_per_chunk_multiplicity(self):
        demand = collectives.allgather([0, 1, 2], 1)
        commodities = build_commodities(demand)
        assert len(commodities) == 3
        q = commodities[0]
        assert isinstance(q.key, tuple)
        assert q.supply == pytest.approx(2.0)  # one physical copy per sink

    def test_aggregation_can_be_disabled(self):
        demand = collectives.alltoall([0, 1, 2], 1)
        commodities = build_commodities(demand, aggregate=False)
        assert len(commodities) == 6  # one per (source, chunk)


class TestRingAlltoall:
    def test_optimal_two_epochs(self, ring4, atoa_ring4):
        best = minimize_epochs_lp(ring4, atoa_ring4, cfg())
        # each GPU ships 3 chunks over 2 out-links: 2 epochs optimal
        assert best.plan.num_epochs == 2
        assert best.finish_time == pytest.approx(2.0)

    def test_demands_fully_met(self, ring4, atoa_ring4):
        out = solve_lp(ring4, atoa_ring4, cfg(4))
        for q in build_commodities(atoa_ring4):
            for d, amount in q.sinks.items():
                assert out.schedule.delivered(q.key, d) == pytest.approx(
                    amount, abs=TOL)

    def test_capacity_respected(self, ring4, atoa_ring4):
        out = solve_lp(ring4, atoa_ring4, cfg(4))
        plan = out.plan
        for (i, j) in ring4.links:
            for k in range(plan.num_epochs):
                assert out.schedule.link_load(i, j, k) <= \
                    plan.cap_chunks[(i, j)] + TOL

    def test_pruned_not_heavier_than_raw(self, ring4, atoa_ring4):
        out = solve_lp(ring4, atoa_ring4, cfg(6))
        assert out.schedule.total_bytes() <= \
            out.raw_schedule.total_bytes() + TOL


class TestFractionalSplitting:
    def test_lp_splits_across_parallel_paths(self):
        """Two disjoint 2-hop paths: the LP halves the chunk across them."""
        topo = topology.Topology("par", num_nodes=4)
        topo.add_bidirectional(0, 1, 1.0)
        topo.add_bidirectional(1, 3, 1.0)
        topo.add_bidirectional(0, 2, 1.0)
        topo.add_bidirectional(2, 3, 1.0)
        demand = collectives.Demand.from_triples([(0, 0, 3), (0, 1, 3)])
        best = minimize_epochs_lp(topo, demand, cfg())
        # 2 chunks over 2 disjoint 2-hop paths: 2 epochs, not 3
        assert best.plan.num_epochs == 2

    def test_fastest_epoch_mode_fractional_caps(self):
        topo = topology.Topology("h", num_nodes=3)
        topo.add_bidirectional(0, 1, 4.0)
        topo.add_bidirectional(1, 2, 1.0)
        demand = collectives.Demand.from_triples([(0, 0, 2)])
        config = TecclConfig(chunk_bytes=4.0, num_epochs=12,
                             epoch_mode=EpochMode.FASTEST_LINK)
        out = solve_lp(topo, demand, config)
        # slow link carries 0.25 chunks/epoch; LP must respect that
        plan = out.plan
        for k in range(plan.num_epochs):
            assert out.schedule.link_load(1, 2, k) <= 0.25 + TOL


class TestNoCopyMulticast:
    def test_multicast_multiplicity(self):
        """LP-as-no-copy: the source pays one injection per destination."""
        topo = topology.copy_star()
        demand = collectives.broadcast(0, [2, 3, 4], 1)
        out = solve_lp(topo, demand, cfg(8), aggregate=False)
        injected = sum(v for (q, i, j, k), v in out.schedule.flows.items()
                       if i == 0)
        assert injected == pytest.approx(3.0, abs=TOL)

    def test_no_copy_slower_than_milp(self):
        from repro.core import solve_milp

        topo = topology.copy_star()
        demand = collectives.broadcast(0, [2, 3, 4], 1)
        with_copy = solve_milp(topo, demand, cfg(8))
        without = solve_lp(topo, demand, cfg(8), aggregate=False)
        # Figure 1(c): 2 s with copy vs 4 s without
        assert with_copy.finish_time == pytest.approx(2.0)
        assert without.finish_time == pytest.approx(4.0)


class TestSwitchTopologies:
    def test_alltoall_through_switch(self, star3):
        demand = collectives.alltoall(star3.gpus, 1)
        out = solve_lp(star3, demand, cfg(8))
        # nothing may terminate at the switch
        for (q, i, j, k), v in out.schedule.flows.items():
            assert v > 0
        for q in build_commodities(demand):
            for d, amount in q.sinks.items():
                assert out.schedule.delivered(q.key, d) == pytest.approx(
                    amount, abs=TOL)

    def test_internal2_alltoall(self, internal2x2):
        demand = collectives.alltoall(internal2x2.gpus, 1)
        config = TecclConfig(chunk_bytes=1e6)
        out = solve_lp(internal2x2, demand, config)
        assert out.finish_time > 0
        assert out.result.status.has_solution


class TestHorizonMachinery:
    def test_infeasible_horizon_raises(self, line3):
        demand = collectives.Demand.from_triples([(0, 0, 2)])
        with pytest.raises(InfeasibleError):
            solve_lp(line3, demand, cfg(1))

    def test_minimize_epochs_raises_when_impossible(self, line3):
        demand = collectives.Demand.from_triples([(0, 0, 2)])
        with pytest.raises(InfeasibleError):
            minimize_epochs_lp(line3, demand, cfg(), max_epochs=1)

    def test_undershooting_bound_is_answered_on_the_third_rung(
            self, monkeypatch):
        """With the bound undershooting (3; ring8 AtoA needs K > 6) the
        ladder succeeds on its third rung, K=12."""
        monkeypatch.setattr(epochs_module, "path_based_epoch_bound",
                            lambda topology, demand, plan, copy=None: 3)
        ring8 = topology.ring(8, capacity=1.0)
        out = solve_lp(ring8, collectives.alltoall(ring8.gpus, 1), cfg())
        assert out.plan.num_epochs == 12
        assert out.result.stats["horizon_epochs"] == 12
        assert out.result.stats["horizon_attempts"] == 3

    def test_minimize_epochs_climbs_the_ladder_like_solve_lp(self,
                                                             monkeypatch):
        """An undershooting bound (6; ring8 AtoA needs K = 8) costs the
        search an attempt, not the answer — it used to give up at the
        estimate where ``solve_lp`` retried at 12. An explicit
        ``max_epochs`` stays a hard cap on the rungs."""
        monkeypatch.setattr(epochs_module, "path_based_epoch_bound",
                            lambda topology, demand, plan, copy=None: 6)
        ring8 = topology.ring(8, capacity=1.0)
        demand = collectives.alltoall(ring8.gpus, 1)
        plain = solve_lp(ring8, demand, cfg())
        assert plain.plan.num_epochs == 12
        assert plain.result.stats["horizon_attempts"] == 2
        best = minimize_epochs_lp(ring8, demand, cfg())
        assert best.plan.num_epochs == 8
        assert best.result.stats["horizon_attempts"] == 2
        assert minimize_epochs_lp(ring8, demand, cfg(),
                                  max_epochs=9).plan.num_epochs == 8
        with pytest.raises(InfeasibleError):
            minimize_epochs_lp(ring8, demand, cfg(), max_epochs=7)


class TestBufferLimitLp:
    def test_zero_relay_buffer_forces_streaming(self):
        topo = topology.line(3, capacity=1.0)
        demand = collectives.Demand.from_triples([(0, 0, 2), (0, 1, 2)])
        out = solve_lp(topo, demand, cfg(8, buffer_limit_chunks=0.0))
        # all demand delivered even though node 1 cannot hold mass
        assert out.schedule.delivered(0, 2) == pytest.approx(2.0, abs=TOL)
        # streaming: inflow into node 1 during epoch k equals outflow at k+1
        inflow = {k: v for (q, i, j, k), v in out.schedule.flows.items()
                  if j == 1}
        outflow = {k: v for (q, i, j, k), v in out.schedule.flows.items()
                   if i == 1}
        for k, v in inflow.items():
            assert outflow.get(k + 1, 0.0) == pytest.approx(v, abs=TOL)


class TestStoreAndForwardLp:
    def test_relay_without_buffering(self):
        topo = topology.line(3, capacity=1.0)
        demand = collectives.Demand.from_triples([(0, 0, 2), (0, 1, 2)])
        out = solve_lp(topo, demand, cfg(8, store_and_forward=False))
        assert out.schedule.delivered(0, 2) == pytest.approx(2.0, abs=TOL)


class TestObjectiveShape:
    def test_reads_happen_as_early_as_possible(self, ring4, atoa_ring4):
        out = solve_lp(ring4, atoa_ring4, cfg(6))
        # direct neighbours can be served at epoch 0; the 1/(k+1) objective
        # must exploit that
        early = sum(v for (q, d, k), v in out.schedule.reads.items()
                    if k == 0)
        assert early > 0
