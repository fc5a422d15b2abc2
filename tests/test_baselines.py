"""Tests for the baseline schedulers and the quality orderings the paper
relies on (TE-CCL ≥ TACCL-like ≥ nothing; SCCL wins only at 1 chunk)."""

import pytest

from repro import collectives, topology
from repro.baselines import (barrier_finish_time, find_ring, ring_allgather,
                             ring_allgather_time, ring_demand, sccl_instance,
                             sccl_least_steps, shortest_path,
                             shortest_path_schedule, taccl_like)
from repro.baselines.common import GreedyScheduler, LinkLedger
from repro.core import TecclConfig, solve_milp
from repro.core.epochs import build_epoch_plan, plan_with_tau
from repro.errors import InfeasibleError, TopologyError
from repro.simulate import check_schedule


def cfg(num_epochs=None, **kwargs):
    return TecclConfig(chunk_bytes=1.0, num_epochs=num_epochs, **kwargs)


class TestLinkLedger:
    def test_unit_capacity_booking(self):
        topo = topology.line(2, capacity=1.0)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=4)
        ledger = LinkLedger(topo, plan, 4)
        assert ledger.earliest(0, 1, 0) == 0
        ledger.reserve(0, 1, 0)
        assert ledger.earliest(0, 1, 0) == 1

    def test_windowed_booking(self):
        topo = topology.line(2, capacity=1.0)
        plan = plan_with_tau(topo, 4.0, tau=1.0, num_epochs=16)
        ledger = LinkLedger(topo, plan, 16)
        ledger.reserve(0, 1, 0)
        # next slot must clear the 4-epoch occupancy window
        assert ledger.earliest(0, 1, 0) == 4

    def test_exhaustion_raises(self):
        topo = topology.line(2, capacity=1.0)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=2)
        ledger = LinkLedger(topo, plan, 2)
        ledger.reserve(0, 1, 0)
        ledger.reserve(0, 1, 1)
        with pytest.raises(InfeasibleError):
            ledger.earliest(0, 1, 0)


class TestGreedyScheduler:
    def test_path_through_switch_atomic(self):
        topo = topology.star(3)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        scheduler = GreedyScheduler(topo, plan, 8)
        scheduler.hold(0, 0, 0, 0)
        arrival = scheduler.send_path(0, 0, [0, 3, 1])
        assert arrival == 2
        sched = scheduler.to_schedule()
        demand = collectives.Demand.from_triples([(0, 0, 1)])
        check_schedule(sched, topo, demand, plan).raise_on_violation()

    def test_path_ending_at_switch_rejected(self):
        topo = topology.star(3)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        scheduler = GreedyScheduler(topo, plan, 8)
        scheduler.hold(0, 0, 0, 0)
        with pytest.raises(InfeasibleError):
            scheduler.send_path(0, 0, [0, 3])

    def test_missing_chunk_rejected(self):
        topo = topology.line(2, capacity=1.0)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=4)
        scheduler = GreedyScheduler(topo, plan, 4)
        with pytest.raises(InfeasibleError):
            scheduler.send_path(0, 0, [0, 1])


class TestShortestPath:
    def test_dijkstra_prefers_low_alpha(self):
        topo = topology.Topology("t", num_nodes=3)
        topo.add_bidirectional(0, 2, capacity=1.0, alpha=10.0)  # direct, slow
        topo.add_bidirectional(0, 1, capacity=1.0, alpha=0.0)
        topo.add_bidirectional(1, 2, capacity=1.0, alpha=0.0)
        assert shortest_path(topo, 0, 2, 1.0) == [0, 1, 2]

    def test_no_path_raises(self):
        topo = topology.Topology("t", num_nodes=3)
        topo.add_bidirectional(0, 1, 1.0)
        topo.add_bidirectional(1, 2, 1.0)
        del topo.links[(1, 2)]
        with pytest.raises(InfeasibleError):
            shortest_path(topo, 0, 2, 1.0)

    def test_alltoall_schedule_valid(self, ring4):
        demand = collectives.alltoall(ring4.gpus, 1)
        sched = shortest_path_schedule(ring4, demand, cfg())
        plan = plan_with_tau(ring4, 1.0, tau=1.0,
                             num_epochs=sched.num_epochs)
        check_schedule(sched, ring4, demand, plan).raise_on_violation()

    def test_never_better_than_milp(self, ring4, ag_ring4):
        sp = shortest_path_schedule(ring4, ag_ring4, cfg())
        opt = solve_milp(ring4, ag_ring4, cfg(8))
        assert sp.finish_time(ring4) >= opt.finish_time - 1e-9

    def test_no_copy_means_more_bytes(self, ring4, ag_ring4):
        sp = shortest_path_schedule(ring4, ag_ring4, cfg())
        opt = solve_milp(ring4, ag_ring4, cfg(8))
        assert sp.total_bytes() >= opt.schedule.total_bytes()


class TestRing:
    def test_find_ring_on_ring(self):
        order = find_ring(topology.ring(5))
        assert sorted(order) == [0, 1, 2, 3, 4]

    def test_find_ring_on_dgx1(self):
        topo = topology.dgx1()
        order = find_ring(topo)
        assert len(order) == 8
        for a, b in zip(order, order[1:] + order[:1]):
            assert topo.has_link(a, b)

    def test_no_ring_raises(self):
        topo = topology.line(3)
        # a line has no Hamiltonian cycle over direct links... but our line
        # is bidirectional so 0-1-2-1-0 is not simple; expect failure
        with pytest.raises(TopologyError):
            find_ring(topo)

    def test_ring_allgather_correct(self):
        topo = topology.ring(5, capacity=1.0)
        sched = ring_allgather(topo, cfg())
        demand = ring_demand(topo)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=sched.num_epochs)
        check_schedule(sched, topo, demand, plan).raise_on_violation()

    def test_ring_time_closed_form(self):
        topo = topology.ring(5, capacity=2.0, alpha=0.5)
        t = ring_allgather_time(topo, 4.0)
        assert t == pytest.approx(4 * (0.5 + 2.0))

    def test_milp_at_least_as_good_as_ring(self):
        topo = topology.ring(4, capacity=1.0)
        demand = collectives.allgather(topo.gpus, 1)
        opt = solve_milp(topo, demand, cfg(8))
        assert opt.finish_time <= ring_allgather_time(topo, 1.0) + 1e-9


class TestScclLike:
    def test_least_steps_line_broadcast(self):
        topo = topology.line(3, capacity=1.0)
        demand = collectives.broadcast(0, [1, 2], 1)
        out = sccl_least_steps(topo, demand, cfg())
        assert out.steps == 2

    def test_instance_infeasible_below_least(self):
        topo = topology.line(3, capacity=1.0)
        demand = collectives.broadcast(0, [1, 2], 1)
        with pytest.raises(InfeasibleError):
            sccl_instance(topo, demand, cfg(), steps=1)

    @pytest.mark.parametrize("status, moves_on", [
        ("infeasible", True), ("horizon", True), ("error", False),
        ("time_limit", False)])
    def test_least_steps_moves_on_only_when_unsatisfiable(
            self, status, moves_on, monkeypatch):
        """A step count whose solve errs or times out without a point is
        not unsatisfiable: reporting a larger least-steps would inflate
        the baseline, so the error propagates instead."""
        from repro.baselines import sccl_like

        real, tried = sccl_like.sccl_instance, []

        def first_fails(topology, demand, config, steps, **kwargs):
            tried.append(steps)
            if len(tried) == 1:
                raise InfeasibleError("first probe", status=status)
            return real(topology, demand, config, steps, **kwargs)

        monkeypatch.setattr(sccl_like, "sccl_instance", first_fails)
        topo = topology.line(3, capacity=1.0)
        demand = collectives.broadcast(0, [1, 2], 1)
        if moves_on:
            assert sccl_least_steps(topo, demand, cfg()).steps == 3
            assert tried == [2, 3]
        else:
            with pytest.raises(InfeasibleError) as info:
                sccl_least_steps(topo, demand, cfg())
            assert info.value.status == status and tried == [2]

    def test_barrier_time_sums_worst_links(self):
        topo = topology.Topology("h", num_nodes=3)
        topo.add_bidirectional(0, 1, 4.0, alpha=0.0)
        topo.add_bidirectional(1, 2, 1.0, alpha=0.5)
        demand = collectives.broadcast(0, [2], 1)
        out = sccl_least_steps(topo, demand, TecclConfig(chunk_bytes=4.0))
        # step 1 uses the fast link (1 s), step 2 the slow one (4.5 s)
        assert out.finish_time == pytest.approx(1.0 + 4.5)

    def test_teccl_beats_sccl_with_multiple_chunks(self):
        """Table 3's shape: the barrier hurts once pipelining matters."""
        topo = topology.line(3, capacity=1.0, alpha=1.0)
        demand = collectives.broadcast(0, [2], 3)
        sccl = sccl_least_steps(topo, demand, cfg())
        teccl = solve_milp(topo, demand, cfg(16))
        assert teccl.finish_time < sccl.finish_time

    def test_schedule_verifies_under_barrier_plan(self, ring4, ag_ring4):
        out = sccl_least_steps(ring4, ag_ring4, cfg())
        from repro.baselines.sccl_like import _barrier_plan

        plan = _barrier_plan(ring4, 1.0, out.steps)
        check_schedule(out.schedule, ring4, ag_ring4,
                       plan).raise_on_violation()


class TestTacclLike:
    def test_allgather_on_ndv2(self):
        topo = topology.ndv2(2)
        demand = collectives.allgather(topo.gpus, 1)
        out = taccl_like(topo, demand, TecclConfig(chunk_bytes=1e6), seed=0)
        plan = build_epoch_plan(out.topology,
                                TecclConfig(chunk_bytes=1e6),
                                out.schedule.num_epochs)
        check_schedule(out.schedule, out.topology, out.demand,
                       plan).raise_on_violation()
        assert out.finish_time > 0
        assert out.routing_time >= 0 and out.scheduling_time >= 0

    def test_deterministic_per_seed(self):
        topo = topology.internal1(2)
        demand = collectives.allgather(topo.gpus, 1)
        config = TecclConfig(chunk_bytes=1e6)
        a = taccl_like(topo, demand, config, seed=7)
        b = taccl_like(topo, demand, config, seed=7)
        assert a.schedule.sends == b.schedule.sends

    def test_seeds_can_differ(self):
        """The paper's 'unreliable heuristic' property: run-to-run variance."""
        topo = topology.internal1(2)
        demand = collectives.allgather(topo.gpus, 1)
        config = TecclConfig(chunk_bytes=1e6)
        finishes = {round(taccl_like(topo, demand, config, seed=s)
                          .finish_time, 12) for s in range(4)}
        # not required to differ, but the machinery must allow it; at
        # minimum the runs completed
        assert len(finishes) >= 1

    def test_never_beats_teccl_milp(self):
        topo = topology.internal2(2)
        demand = collectives.allgather(topo.gpus, 1)
        config = TecclConfig(chunk_bytes=1e6)
        heuristic = taccl_like(topo, demand, config, seed=0)
        from repro.core.config import SwitchModel
        from repro.core.solve import Method, synthesize

        fair = TecclConfig(chunk_bytes=1e6, num_epochs=24,
                           switch_model=SwitchModel.HYPER_EDGE)
        ours = synthesize(topo, demand, fair, method=Method.MILP)
        assert ours.finish_time <= heuristic.finish_time + 1e-12

    def test_tight_horizon_infeasible(self):
        topo = topology.internal2(2)
        demand = collectives.allgather(topo.gpus, 4)
        config = TecclConfig(chunk_bytes=1e6)
        with pytest.raises(InfeasibleError):
            taccl_like(topo, demand, config, seed=0, horizon_factor=0.01)
