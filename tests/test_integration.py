"""End-to-end tests of the paper's qualitative claims, in miniature.

Each test is one claim from the evaluation (§2 examples, §6 findings),
exercised through the public facade on instances small enough for CI.
"""

import pytest

from repro import collectives, topology
from repro.collectives import TenantDemand, allgather_plan
from repro.core import TecclConfig, solve_lp, solve_milp
from repro.core.astar import solve_astar
from repro.core.config import AStarConfig, EpochMode, SwitchModel
from repro.core.solve import (Method, synthesize, synthesize_multi_tenant)
from repro.simulate import check_schedule
from repro.solver import SolverOptions


class TestFigure1Claims:
    def test_1b_store_and_forward_solution_quality_unchanged(self):
        """Fig 1(b): buffers enlarge the solution space, not the optimum."""
        topo = topology.store_and_forward_star()
        demand = collectives.gather(4, [0, 1, 2], 1)
        cfg = TecclConfig(chunk_bytes=1.0, num_epochs=6)
        with_sf = solve_milp(topo, demand, cfg)
        without = solve_milp(
            topo, demand,
            TecclConfig(chunk_bytes=1.0, num_epochs=6,
                        store_and_forward=False))
        # both satisfy the demand in 3 "seconds" (3 unit chunks over the
        # 2-unit h->d link, bottlenecked at ceil(3/2) = 2 epochs + relay)
        assert with_sf.finish_time == pytest.approx(without.finish_time)

    def test_1c_copy_halves_transfer(self):
        """Fig 1(c): 2 s with copy vs 4 s without, exactly."""
        topo = topology.copy_star()
        demand = collectives.broadcast(0, [2, 3, 4], 1)
        cfg = TecclConfig(chunk_bytes=1.0, num_epochs=8)
        with_copy = solve_milp(topo, demand, cfg)
        without = solve_lp(topo, demand, cfg, aggregate=False)
        assert with_copy.finish_time == pytest.approx(2.0)
        assert without.finish_time == pytest.approx(4.0)


class TestAutoMethodSelection:
    def test_alltoall_uses_lp(self, internal2x2):
        demand = collectives.alltoall(internal2x2.gpus, 1)
        result = synthesize(internal2x2, demand,
                            TecclConfig(chunk_bytes=1e6))
        assert result.method is Method.LP

    def test_allgather_uses_milp(self, dgx1):
        demand = collectives.allgather(dgx1.gpus, 1)
        result = synthesize(dgx1, demand,
                            TecclConfig(chunk_bytes=25e3, num_epochs=10))
        assert result.method is Method.MILP

    def test_forced_astar(self, internal2x2):
        demand = collectives.allgather(internal2x2.gpus, 1)
        result = synthesize(internal2x2, demand,
                            TecclConfig(chunk_bytes=1e6),
                            method=Method.ASTAR)
        assert result.method is Method.ASTAR

    def test_hyper_edge_mode_transforms(self, internal2x2):
        demand = collectives.allgather(internal2x2.gpus, 1)
        cfg = TecclConfig(chunk_bytes=1e6, num_epochs=16,
                          switch_model=SwitchModel.HYPER_EDGE)
        result = synthesize(internal2x2, demand, cfg, method=Method.MILP)
        assert result.hyper is not None
        assert not result.hyper.topology.switches

    def test_algorithmic_bandwidth_helper(self, dgx1):
        demand = collectives.allgather(dgx1.gpus, 1)
        plan = allgather_plan(8, output_buffer_bytes=8 * 25e3)
        result = synthesize(dgx1, demand,
                            TecclConfig(chunk_bytes=plan.chunk_bytes,
                                        num_epochs=10))
        ab = result.algorithmic_bandwidth(plan.output_buffer_bytes)
        assert ab > 0


class TestMultiTenant:
    def test_two_tenants_share_fabric(self, ring4):
        tenants = [
            TenantDemand(collectives.allgather(ring4.gpus, 1), 1.0, "a"),
            TenantDemand(collectives.alltoall(ring4.gpus, 1), 1.0, "b"),
        ]
        result = synthesize_multi_tenant(
            ring4, tenants, TecclConfig(chunk_bytes=1.0, num_epochs=10),
            method=Method.MILP)
        assert result.finish_time > 0

    def test_priority_changes_completion_order(self):
        topo = topology.line(2, capacity=1.0)
        slow = collectives.Demand.from_triples([(0, 0, 1)])
        fast = collectives.Demand.from_triples([(0, 0, 1)])
        base = TecclConfig(chunk_bytes=1.0, num_epochs=4)
        result = synthesize_multi_tenant(
            topo,
            [TenantDemand(slow, 1.0, "low"), TenantDemand(fast, 9.0, "hi")],
            base, method=Method.MILP)
        sends = sorted(result.schedule.sends)
        # the high-priority tenant's (renumbered) chunk goes first
        assert sends[0].chunk == 1


class TestScalePath:
    @pytest.mark.slow
    def test_astar_on_8_chassis_internal2(self):
        """Table 4's direction: A* handles fabrics the MILP struggles with."""
        topo = topology.internal2(8)  # 16 GPUs + switch
        demand = collectives.allgather(topo.gpus, 1)
        cfg = TecclConfig(chunk_bytes=1e6,
                          solver=SolverOptions(mip_gap=0.3, time_limit=120))
        out = solve_astar(topo, demand, cfg, AStarConfig())
        report = check_schedule(out.schedule, topo, demand,
                                out.plan).raise_on_violation()
        assert report.ok

    @pytest.mark.slow
    def test_lp_on_8_chassis_internal2_alltoall(self):
        topo = topology.internal2(8)
        demand = collectives.alltoall(topo.gpus, 1)
        out = solve_lp(topo, demand, TecclConfig(chunk_bytes=1e6))
        assert out.result.status.has_solution

    def test_epoch_multiplier_shrinks_model(self):
        """Table 4's EM knob: coarser epochs, smaller model, same demand."""
        topo = topology.internal2(4)
        demand = collectives.alltoall(topo.gpus, 1)
        fine = solve_lp(topo, demand, TecclConfig(chunk_bytes=1e6))
        coarse = solve_lp(topo, demand,
                          TecclConfig(chunk_bytes=1e6, epoch_multiplier=2.0))
        assert coarse.result.stats["num_vars"] < fine.result.stats["num_vars"]
        assert coarse.finish_time >= fine.finish_time - 1e-9


class TestEpochGranularity:
    def test_fig8_small_epochs_better_schedules(self):
        """Fig 8(b): fastest-link epochs win on heterogeneous fabrics."""
        topo = topology.ndv2(2)
        demand = collectives.allgather(topo.gpus[:4], 1)
        small = synthesize(topo, demand, TecclConfig(
            chunk_bytes=1e6, num_epochs=24,
            epoch_mode=EpochMode.FASTEST_LINK,
            solver=SolverOptions(mip_gap=0.05)), method=Method.MILP)
        large = synthesize(topo, demand, TecclConfig(
            chunk_bytes=1e6, num_epochs=8,
            epoch_mode=EpochMode.SLOWEST_LINK,
            solver=SolverOptions(mip_gap=0.05)), method=Method.MILP)
        assert small.finish_time <= large.finish_time * 1.05 + 1e-9


class TestReducescatterAllreduce:
    def test_reducescatter_lp(self, ring4):
        demand = collectives.reduce_scatter(ring4.gpus, 1)
        result = synthesize(ring4, demand, TecclConfig(chunk_bytes=1.0))
        assert result.method is Method.LP

    def test_allreduce_as_two_phases(self, ring4):
        rs, ag = collectives.allreduce_phases(ring4.gpus, 1)
        cfg = TecclConfig(chunk_bytes=1.0, num_epochs=8)
        phase1 = synthesize(ring4, rs, cfg)
        phase2 = synthesize(ring4, ag, cfg, method=Method.MILP)
        total = phase1.finish_time + phase2.finish_time
        assert total > 0
