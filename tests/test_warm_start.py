"""The incremental re-solve engine: warm starts, model growth, re-planning.

Differential suite for PR 4: every warm path (shared-model
``minimize_epochs`` searches, POP retries on growing models, seeded
``replan``/repair re-solves) must reach the same objectives as a cold solve
of the same model — float-tight — and every schedule it hands out must
replay cleanly through the PR 3 conformance oracle.
"""

import math

import numpy as np
import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.epochs import build_epoch_plan, path_based_epoch_bound
from repro.core.lp import (IncrementalLp, LpBuilder, _minimize_epochs_cold,
                           minimize_epochs_lp)
from repro.core.pop import pop_auto_horizon, solve_lp_pop
from repro.core.solve import synthesize
from repro.errors import ModelError, ReproError
from repro.failures import FailureEvent, replan
from repro.simulate import check_flow, check_result
from repro.simulate.harness import random_instance
from repro.solver import Model, Sense, SolveStatus, WarmStart

TOL = 1e-6

pytestmark = pytest.mark.warmstart


# uniformly renegotiated bandwidth = the library's what-if transform
_scaled_topology = topology.scale_capacity


# ----------------------------------------------------------------------
# solver layer: WarmStart + extend/patch/bounds mechanics
# ----------------------------------------------------------------------
class TestWarmStartApi:
    def _toy(self):
        model = Model("toy", sense=Sense.MAXIMIZE)
        idx = model.add_var_array(2, ub=4.0)
        model.add_constr_coo([0, 0], [0, 1], [1.0, 2.0], -np.inf, 6.0)
        model.set_objective_array(idx, np.ones(2))
        return model, idx

    def test_capture_and_pad(self):
        model, _ = self._toy()
        result = model.solve()
        warm = result.warm_start()
        assert warm is not None
        assert warm.num_vars == 2
        assert warm.objective == pytest.approx(result.objective)
        padded = warm.padded(4)
        assert padded.shape == (4,)
        assert padded[2:] == pytest.approx([0.0, 0.0])

    def test_pad_rejects_shrinking(self):
        model, _ = self._toy()
        warm = model.solve().warm_start()
        with pytest.raises(ModelError):
            warm.padded(1)

    def test_no_solution_no_warm_start(self):
        model = Model("inf")
        x = model.add_var_array(1, ub=1.0)
        model.add_constr_coo([0], [0], [1.0], 2.0, np.inf)
        model.set_objective_array(x, np.ones(1))
        result = model.solve()
        assert result.status is SolveStatus.INFEASIBLE
        assert result.warm_start() is None
        assert WarmStart.from_result(result) is None
        assert WarmStart.from_result(None) is None

    def test_solve_records_backend_support(self):
        model, _ = self._toy()
        warm = model.solve().warm_start()
        result = model.solve(warm_start=warm)
        # scipy's HiGHS wrappers accept no primal seed today; the solve
        # must still succeed and say what happened to the hint.
        assert result.stats["warm_start"] in ("applied", "unsupported")
        assert result.objective == pytest.approx(5.0)

    def test_check_point(self):
        model, _ = self._toy()
        result = model.solve()
        assert model.check_point(result.values)
        assert not model.check_point(np.array([10.0, 10.0]))
        assert not model.check_point(np.array([1.0]))


class TestModelExtend:
    def test_extend_matches_cold_build(self):
        grown = Model("g", sense=Sense.MAXIMIZE)
        idx = grown.add_var_array(2, ub=3.0)
        grown.add_constr_coo([0, 0], [0, 1], [1.0, 1.0], -np.inf, 4.0)
        grown.set_objective_array(idx, np.ones(2))
        first = grown.solve()
        grown.extend()
        extra = grown.add_var_array(1, ub=2.0)
        grown.add_coo_terms([0], [int(extra[0])], [1.0])
        grown.add_constr_coo([0], [int(extra[0])], [1.0], 0.5, np.inf)
        grown.set_objective_array(np.concatenate([idx, extra]), np.ones(3))

        cold = Model("c", sense=Sense.MAXIMIZE)
        cidx = cold.add_var_array(2, ub=3.0)
        cextra = cold.add_var_array(1, ub=2.0)
        cold.add_constr_coo([0, 0, 0], [0, 1, 2], [1.0, 1.0, 1.0],
                            -np.inf, 4.0)
        cold.add_constr_coo([0], [int(cextra[0])], [1.0], 0.5, np.inf)
        cold.set_objective_array(np.concatenate([cidx, cextra]), np.ones(3))

        a, b = grown.compile(), cold.compile()
        assert a.A.shape == b.A.shape
        assert (a.A != b.A).nnz == 0
        assert np.array_equal(a.row_lower, b.row_lower)
        assert np.array_equal(a.row_upper, b.row_upper)
        assert grown.solve().objective == pytest.approx(
            cold.solve().objective)
        # the pre-extension solve is untouched by the growth
        assert first.objective == pytest.approx(4.0)

    def test_patch_requires_existing_rows(self):
        model = Model("p")
        model.add_var_array(1)
        with pytest.raises(ModelError):
            model.add_coo_terms([0], [0], [1.0])

    def test_bound_restriction_roundtrip(self):
        model, idx = Model("b", sense=Sense.MAXIMIZE), None
        idx = model.add_var_array(3, ub=2.0)
        model.set_objective_array(idx, np.ones(3))
        assert model.solve().objective == pytest.approx(6.0)
        model.set_var_bounds(idx[1:], ub=0.0)
        assert model.solve().objective == pytest.approx(2.0)
        model.set_var_bounds(idx[1:], ub=np.inf)
        model.set_var_bounds(idx[1:], ub=2.0)
        assert model.solve().objective == pytest.approx(6.0)

    def test_bound_mutation_rejects_crossing(self):
        model = Model("x")
        idx = model.add_var_array(1, lb=1.0, ub=2.0)
        with pytest.raises(ModelError):
            model.set_var_bounds(idx, ub=0.5)


# ----------------------------------------------------------------------
# LP layer: growth differential (append == rebuild)
# ----------------------------------------------------------------------
class TestIncrementalGrowth:
    @pytest.mark.parametrize("seed", range(8))
    def test_grown_model_equals_cold_build(self, seed):
        topo, demand, config = random_instance(seed)
        inc = None
        for start_k in (3, 6, 10):
            try:
                inc = IncrementalLp(topo, demand, config, start_k)
                break
            except ReproError:
                continue
        assert inc is not None, "no feasible starting horizon up to 10"
        inc.grow(start_k + 2)
        inc.grow(start_k + 9)

        plan = build_epoch_plan(topo, config, num_epochs=start_k + 9)
        cold = LpBuilder(topo, demand, config, plan).build()
        assert inc.model.num_vars == cold.model.num_vars
        assert inc.model.num_constraints == cold.model.num_constraints
        assert inc.model.compile().A.nnz == cold.model.compile().A.nnz
        warm_result = inc.model.solve(config.solver)
        cold_result = cold.model.solve(config.solver)
        assert warm_result.status.has_solution \
            == cold_result.status.has_solution
        if warm_result.status.has_solution:
            assert warm_result.objective == pytest.approx(
                cold_result.objective, rel=TOL)
            outcome = inc.extract(warm_result, start_k + 9)
            report = check_flow(outcome.schedule, topo, demand,
                                outcome.plan, config=config)
            assert report.ok, report.violations[:3]

    def test_restricted_probe_matches_cold_horizon(self):
        ring4 = topology.ring(4, capacity=1.0)
        atoa = collectives.alltoall(ring4.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0)
        inc = IncrementalLp(ring4, atoa, config, 6)
        probe = inc.solve_at(2)
        plan2 = build_epoch_plan(ring4, config, num_epochs=2)
        cold = LpBuilder(ring4, atoa, config, plan2).build()
        cold_result = cold.model.solve(config.solver)
        assert probe.status.has_solution
        assert probe.objective == pytest.approx(cold_result.objective,
                                                rel=TOL)

    def test_grow_rejects_shrinking(self):
        ring4 = topology.ring(4, capacity=1.0)
        atoa = collectives.alltoall(ring4.gpus, 1)
        inc = IncrementalLp(ring4, atoa, TecclConfig(chunk_bytes=1.0), 4)
        with pytest.raises(ModelError):
            inc.grow(3)


# ----------------------------------------------------------------------
# the acceptance sweep: >= 20 randomized instances, three warm paths
# ----------------------------------------------------------------------
class TestMinimizeEpochsDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_warm_equals_cold(self, seed):
        topo, demand, config = random_instance(seed)
        try:
            warm = minimize_epochs_lp(topo, demand, config)
            probe = build_epoch_plan(topo, config, num_epochs=1)
            cold = _minimize_epochs_cold(
                topo, demand, config,
                path_based_epoch_bound(topo, demand, probe))
        except ReproError:
            pytest.skip("instance infeasible for the horizon search")
        assert warm.plan.num_epochs == cold.plan.num_epochs
        assert warm.result.objective == pytest.approx(
            cold.result.objective, rel=TOL)
        for outcome in (warm, cold):
            report = check_flow(outcome.schedule, topo, demand,
                                outcome.plan, config=config)
            assert report.ok, (seed, report.violations[:3])
        # the warm search really ran on the shared model (no silent
        # fallback to the cold path)
        assert "horizon_solves" in warm.result.stats


class TestPopDifferential:
    @pytest.mark.parametrize("seed", range(10))
    def test_warm_equals_cold(self, seed):
        topo, demand, config = random_instance(seed)
        if demand.benefits_from_copy():
            demand = collectives.alltoall(topo.gpus, 1)
        if len(demand.sources) < 2:
            pytest.skip("POP needs at least two sources")
        try:
            warm = solve_lp_pop(topo, demand, config, num_partitions=2,
                                seed=seed)
            cold = solve_lp_pop(topo, demand, config, num_partitions=2,
                                seed=seed, incremental=False)
        except ReproError:
            pytest.skip("POP infeasible on this instance")
        assert warm.attempts == cold.attempts
        assert warm.plan.num_epochs == cold.plan.num_epochs
        assert len(warm.sub_outcomes) == len(cold.sub_outcomes)
        for w, c in zip(warm.sub_outcomes, cold.sub_outcomes):
            assert w.result.objective == pytest.approx(
                c.result.objective, rel=TOL)
        report = check_flow(warm.schedule, topo, demand, warm.plan,
                            config=config)
        assert report.ok, (seed, report.violations[:3])


class TestReplanDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_resolve_equals_cold_at_same_horizon(self, seed):
        topo, demand, config = random_instance(seed)
        try:
            prior = synthesize(topo, demand, config)
        except ReproError:
            pytest.skip("baseline synthesis infeasible")
        # perturb: uniformly renegotiated bandwidth (the Cloud Collectives
        # scenario); the near class is preserved, the instance is not.
        perturbed = _scaled_topology(topo, 0.5)
        result = replan(prior, perturbed, demand, config)
        report = check_result(result, config=config)
        assert report.ok, (seed, report.violations[:3])
        # fair differential: a cold solve of the *same* model (horizon
        # pinned to what the warm path chose) reaches the same objective
        from dataclasses import replace

        pinned = replace(config, num_epochs=result.plan.num_epochs)
        cold = synthesize(perturbed, demand, pinned)
        warm_obj = result.outcome.result.objective
        cold_obj = cold.outcome.result.objective
        assert warm_obj == pytest.approx(cold_obj, rel=TOL)

    def test_repair_replan_is_conformant(self):
        ring6 = topology.ring(6, capacity=1.0)
        ag = collectives.allgather(ring6.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0)
        prior = synthesize(ring6, ag, config)
        outcome = replan(prior, ring6, ag, config,
                         failures=[FailureEvent(epoch=1, link=(0, 1))])
        assert outcome.synthesis is not None
        report = outcome.check_conformance(config)
        assert report.ok, report.violations[:3]
        assert outcome.total_time > 0

    def test_fractional_prior_replans_on_degraded_fabric(self):
        ring6 = topology.ring(6, capacity=1.0)
        atoa = collectives.alltoall(ring6.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0)
        prior = synthesize(ring6, atoa, config)
        result = replan(prior, ring6, atoa, config,
                        failures=[FailureEvent(epoch=1, link=(0, 1))])
        # LP priors have no integral prefix: a fresh degraded-fabric solve
        assert result.finish_time > prior.finish_time
        assert check_result(result).ok

    def test_warm_hint_shrinks_the_model(self):
        ring6 = topology.ring(6, capacity=1.0)
        atoa = collectives.alltoall(ring6.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0)
        prior = synthesize(ring6, atoa, config)
        seeded = replan(prior, ring6, atoa, config)
        cold = synthesize(ring6, atoa, config)
        assert seeded.plan.num_epochs <= cold.plan.num_epochs
        hint = math.ceil(prior.finish_time / prior.plan.tau) + 1
        assert seeded.plan.num_epochs <= max(2, hint)


class TestPopAutoHorizon:
    def test_default_two_partitions_gets_real_slack(self):
        # regression: max(K, int(K * 2 * 0.5)) == K was a no-op
        for base in (2, 5, 10, 17):
            assert pop_auto_horizon(base, 2) > base

    def test_floor_of_one_epoch(self):
        assert pop_auto_horizon(2, 2) == 3

    def test_scales_with_partitions(self):
        assert pop_auto_horizon(10, 3) == 15
        assert pop_auto_horizon(10, 4) == 20

    def test_single_partition_unchanged(self):
        assert pop_auto_horizon(10, 1) == 10

    def test_two_partition_instance_solves_first_try(self):
        # with real slack the default POP run burns no infeasible retry
        ring6 = topology.ring(6, capacity=1.0)
        atoa = collectives.alltoall(ring6.gpus, 1)
        out = solve_lp_pop(ring6, atoa, TecclConfig(chunk_bytes=1.0),
                           num_partitions=2)
        assert out.attempts == 1
