"""Integration tests chaining the extension subsystems end to end.

Each test exercises a realistic operator workflow across module borders:
calibrate → synthesize, fail → repair → re-verify, synthesize → lower →
interpret (for baselines too), and design-search over the new fabrics.
"""

import pytest

from repro import collectives, topology
from repro.analysis.calibration import apply_calibration, calibrate_topology
from repro.baselines import blink_broadcast, tree_allgather
from repro.core import TecclConfig, solve_lp, solve_milp, synthesize
from repro.core.decompose import decompose
from repro.core.pop import solve_lp_pop
from repro.core.solve import Method
from repro.failures import FailureEvent, repair_schedule
from repro.msccl import to_msccl_xml, verify_program
from repro.simulate import check_schedule, run_events
from repro.solver import SolverOptions
from repro.toposearch import DesignSpec, greedy_augment


def cfg(num_epochs=None, **kwargs):
    return TecclConfig(chunk_bytes=1.0, num_epochs=num_epochs, **kwargs)


class TestCalibrateThenSynthesize:
    def test_noisy_calibration_preserves_schedule_quality(self):
        """Synthesis on a 2%-noise calibrated fabric must land within a
        few percent of synthesis on the declared fabric."""
        topo = topology.dgx1()
        fits = calibrate_topology(topo, noise=0.02, seed=11)
        calibrated = apply_calibration(topo, fits)
        config = TecclConfig(chunk_bytes=1e6, num_epochs=10,
                             solver=SolverOptions(mip_gap=0.05))
        demand = collectives.allgather(topo.gpus, 1)
        truth = solve_milp(topo, demand, config)
        fitted = solve_milp(calibrated, demand, config)
        # execute the *fitted* schedule on the *true* fabric: the real test
        # of calibration quality. Schedules are discrete objects — a small
        # parameter error can tip one routing decision — so the bound is
        # loose; the no-noise round-trip test pins the exact case.
        replayed = run_events(fitted.schedule, topo, demand).finish_time
        baseline = run_events(truth.schedule, topo, demand).finish_time
        assert replayed <= baseline * 1.5


class TestFailRepairVerify:
    def test_repair_result_simulates_clean(self):
        topo = topology.ring(4, capacity=1.0)
        demand = collectives.allgather(topo.gpus, 1)
        outcome = solve_milp(topo, demand, cfg(8))
        repair = repair_schedule(topo, demand, cfg(), outcome.schedule,
                                 outcome.plan, [FailureEvent(1, (0, 1))],
                                 method=Method.MILP)
        assert repair.synthesis is not None
        residual = repair.residual_demand
        report = run_events(repair.synthesis.schedule, repair.degraded,
                            residual)
        for s, c, d in residual.triples():
            assert (s, c, d) in report.delivered

    def test_repaired_program_exports_and_interprets(self):
        topo = topology.ring(4, capacity=1.0)
        demand = collectives.allgather(topo.gpus, 1)
        outcome = solve_milp(topo, demand, cfg(8))
        repair = repair_schedule(topo, demand, cfg(), outcome.schedule,
                                 outcome.plan, [FailureEvent(1, (1, 2))],
                                 method=Method.MILP)
        assert repair.synthesis is not None
        doc = to_msccl_xml(repair.synthesis.schedule, repair.degraded,
                           repair.residual_demand)
        report = verify_program(doc, repair.degraded,
                                repair.residual_demand, chunk_bytes=1.0)
        assert report.fired == report.total


class TestBaselinesThroughMscclPipeline:
    def test_tree_allgather_lowers_and_interprets(self, dgx1):
        config = TecclConfig(chunk_bytes=1e6)
        demand = collectives.allgather(dgx1.gpus, 1)
        schedule = tree_allgather(dgx1, config, chunks_per_gpu=1)
        doc = to_msccl_xml(schedule, dgx1, demand)
        report = verify_program(doc, dgx1, demand, chunk_bytes=1e6)
        assert not report.deadlocked

    def test_blink_broadcast_lowers_and_interprets(self, star3):
        config = TecclConfig(chunk_bytes=1.0)
        demand = collectives.broadcast(0, star3.gpus, 2)
        schedule = blink_broadcast(star3, config, root=0, num_chunks=2)
        doc = to_msccl_xml(schedule, star3, demand)
        report = verify_program(doc, star3, demand, chunk_bytes=1.0)
        assert not report.deadlocked


class TestPopThroughDecompose:
    def test_pop_schedule_decomposes_to_paths(self, ring4, atoa_ring4):
        pop = solve_lp_pop(ring4, atoa_ring4, cfg(12), num_partitions=2)
        strips = decompose(pop.schedule, ring4, pop.plan)
        assert strips
        # every strip walks existing links
        for strip in strips:
            nodes = strip.nodes
            for a, b in zip(nodes, nodes[1:]):
                assert ring4.has_link(a, b)


class TestDesignSearchOnFabrics:
    def test_augmenting_torus_never_degrades(self):
        base = topology.torus2d(2, 3, capacity=1e9, alpha=0.0)
        spec = DesignSpec(num_gpus=6, capacity=1e9)
        demand = collectives.broadcast(0, base.gpus, 1)
        config = TecclConfig(chunk_bytes=1e6, num_epochs=8,
                             solver=SolverOptions(mip_gap=0.05))
        result = greedy_augment(base, spec, demand, config, extra_links=1)
        from repro.toposearch import evaluate_topology

        assert result.finish_time <= evaluate_topology(
            base, demand, config) + 1e-12


class TestMultiTenantSimulation:
    @pytest.mark.slow
    def test_merged_tenants_schedule_simulates_clean(self):
        from repro.collectives import TenantDemand
        from repro.core import synthesize_multi_tenant

        topo = topology.internal1(2)
        gpus = topo.gpus
        tenants = [
            TenantDemand(collectives.allgather(gpus[:2], 1), priority=2.0,
                         name="hot"),
            TenantDemand(collectives.alltoall(gpus[2:], 1), priority=1.0,
                         name="cold"),
        ]
        config = TecclConfig(chunk_bytes=1e6,
                             solver=SolverOptions(time_limit=30))
        result = synthesize_multi_tenant(topo, tenants, config,
                                         method=Method.MILP)
        check_schedule(result.schedule, topo, result.demand_used,
                       result.plan).raise_on_violation()
