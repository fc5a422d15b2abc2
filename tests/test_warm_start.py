"""One built model, many horizons: the horizon search and POP retries.

Differential suite: every shortcut (the shared-model ``minimize_epochs``
search with its bound-restricted probes and rebuild-at-2K anchor loop, POP's
infeasible-horizon retries) must reach the same objectives as a cold solve
of the same model — float-tight — and every schedule it hands out must
replay cleanly through the conformance oracle.
"""

import numpy as np
import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core import epochs as epochs_module
from repro.core import lp as lp_module
from repro.core import pop as pop_module
from repro.core.epochs import build_epoch_plan, path_based_epoch_bound
from repro.core.lp import (IncrementalLp, LpBuilder, _minimize_epochs_cold,
                           minimize_epochs_lp)
from repro.core.pop import pop_auto_horizon, solve_lp_pop
from repro.errors import InfeasibleError, ModelError, ReproError
from repro.simulate import check_flow
from repro.simulate.harness import random_instance
from repro.solver import Model, Sense

TOL = 1e-6

pytestmark = pytest.mark.warmstart


# ----------------------------------------------------------------------
# solver layer: bound mutation (the mechanism behind restricted probes)
# ----------------------------------------------------------------------
class TestModelExtend:
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

    def test_rejected_bound_mutation_leaves_the_model_untouched(self):
        # validate, then assign: a crossing anywhere in the batch must not
        # leave lb > ub (or half the batch written) for the next solve
        model = Model("x")
        idx = model.add_var_array(3, lb=0.0, ub=4.0)
        for kwargs in ({"lb": 5.0, "ub": 1.0},
                       {"lb": [1.0, 1.0, 9.0]},
                       {"ub": [3.0, -1.0, 3.0]}):
            with pytest.raises(ModelError):
                model.set_var_bounds(idx, **kwargs)
            compiled = model.compile()
            assert compiled.col_lower.tolist() == [0.0, 0.0, 0.0]
            assert compiled.col_upper.tolist() == [4.0, 4.0, 4.0]
        model.set_var_bounds(idx, lb=[1.0, 2.0, 3.0], ub=3.0)  # still works
        compiled = model.compile()
        assert compiled.col_lower.tolist() == [1.0, 2.0, 3.0]
        assert compiled.col_upper.tolist() == [3.0, 3.0, 3.0]

    def test_integrality_vector_is_the_same_with_and_without_integers(self):
        from repro.solver import VarType

        model = Model("lp")
        model.add_var_array(4)
        integrality = model.compile().integrality
        assert integrality.dtype == np.int64
        assert integrality.tolist() == [0, 0, 0, 0]
        model.add_var_array(2, vtype=VarType.BINARY)
        model.add_var_array(1, vtype=VarType.INTEGER)
        integrality = model.compile().integrality
        assert integrality.dtype == np.int64
        assert integrality.tolist() == [0, 0, 0, 0, 1, 1, 1]


# ----------------------------------------------------------------------
# LP layer: one built model answers the smaller horizons
# ----------------------------------------------------------------------
class TestIncrementalGrowth:
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


# ----------------------------------------------------------------------
# the acceptance sweep: >= 20 randomized instances
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
                path_based_epoch_bound(topo, demand, probe, copy=False))
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

    @pytest.mark.parametrize("status", ["horizon", "error"])
    def test_cold_search_moves_on_only_past_short_horizons(self, status,
                                                          monkeypatch):
        """A probe that fails for another reason than a short horizon (a
        backend error, a time limit without a point) proves nothing about
        K: the cold search re-raises it instead of searching higher."""
        topo = topology.ring(4, capacity=1.0, alpha=0.0)
        demand = collectives.alltoall(topo.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0)
        real, tried = lp_module._solve_lp_at, []

        def first_fails(topology, demand, config, plan, **kwargs):
            tried.append(plan.num_epochs)
            if len(tried) == 1:
                raise InfeasibleError("first probe", status=status)
            return real(topology, demand, config, plan, **kwargs)

        monkeypatch.setattr(lp_module, "_solve_lp_at", first_fails)
        if status == "horizon":
            _minimize_epochs_cold(topo, demand, config, 8)
            assert tried[:2] == [4, 6]
        else:
            with pytest.raises(InfeasibleError) as info:
                _minimize_epochs_cold(topo, demand, config, 8)
            assert info.value.status == "error" and tried == [4]

    @pytest.mark.parametrize("seed", range(8))
    def test_undershot_estimate_rebuilds_and_equals_cold(self, seed,
                                                         monkeypatch):
        """A bound of 3 is infeasible on every one of these instances
        (they need 4 to 12 epochs), so the anchor must climb the ladder —
        rebuilding at 6, 12, capped at ``max_epochs`` — before it can
        descend."""
        built = []

        class Recording(IncrementalLp):
            def __init__(self, topology, demand, config, num_epochs, **kw):
                built.append(num_epochs)
                super().__init__(topology, demand, config, num_epochs, **kw)

        monkeypatch.setattr(lp_module, "IncrementalLp", Recording)
        topo, demand, config = random_instance(seed)
        probe = build_epoch_plan(topo, config, num_epochs=1)
        bound = path_based_epoch_bound(topo, demand, probe, copy=False)
        monkeypatch.setattr(epochs_module, "path_based_epoch_bound",
                            lambda topology, demand, plan, copy=None: 3)
        warm = minimize_epochs_lp(topo, demand, config, max_epochs=bound)
        cold = _minimize_epochs_cold(topo, demand, config, bound)
        assert len(built) >= 2 and built[0] == 3
        assert built[1:] == [min(bound, 2 * k) for k in built[:-1]]
        assert warm.result.stats["horizon_attempts"] == len(built)
        assert warm.plan.num_epochs == cold.plan.num_epochs
        assert warm.result.objective == pytest.approx(
            cold.result.objective, rel=TOL)
        report = check_flow(warm.schedule, topo, demand, warm.plan,
                            config=config)
        assert report.ok, (seed, report.violations[:3])


class TestPopDifferential:
    @pytest.mark.parametrize("seed", range(10))
    def test_warm_equals_cold(self, seed):
        """The merged schedule of the default path replays clean."""
        topo, demand, config = random_instance(seed)
        if demand.benefits_from_copy():
            demand = collectives.alltoall(topo.gpus, 1)
        if len(demand.sources) < 2:
            pytest.skip("POP needs at least two sources")
        try:
            out = solve_lp_pop(topo, demand, config, num_partitions=2,
                               seed=seed)
        except ReproError:
            pytest.skip("POP infeasible on this instance")
        report = check_flow(out.schedule, topo, demand, out.plan,
                            config=config)
        assert report.ok, (seed, report.violations[:3])

    def test_undershot_horizon_retries_to_the_explicit_result(
            self, monkeypatch):
        """An infeasible auto horizon is doubled and every partition
        rebuilt; the result is the direct solve at the final horizon."""
        from dataclasses import replace

        monkeypatch.setattr(pop_module, "pop_auto_horizon",
                            lambda num_epochs, num_partitions: 2)
        ring6 = topology.ring(6, capacity=1.0)
        atoa = collectives.alltoall(ring6.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0)
        retried = solve_lp_pop(ring6, atoa, config, num_partitions=2)
        assert retried.attempts >= 2
        final_k = retried.plan.num_epochs
        assert final_k == 2 * 2 ** (retried.attempts - 1)
        direct = solve_lp_pop(ring6, atoa,
                              replace(config, num_epochs=final_k),
                              num_partitions=2)
        assert direct.attempts == 1
        assert direct.plan.num_epochs == final_k
        assert retried.schedule.flows == direct.schedule.flows
        assert retried.schedule.reads == direct.schedule.reads
        assert retried.finish_time == pytest.approx(direct.finish_time)
        for a, b in zip(retried.sub_outcomes, direct.sub_outcomes):
            assert a.result.objective == pytest.approx(b.result.objective,
                                                       rel=TOL)


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
