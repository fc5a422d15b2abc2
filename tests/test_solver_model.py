"""Unit tests for the Model → HiGHS compile-and-solve path."""

import numpy as np
import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.solve import synthesize
from repro.errors import InfeasibleError, ModelError
from repro.solver import (Model, Sense, SolverOptions, SolveStatus, VarType)

NAN, INF = float("nan"), float("inf")


def toy_lp(sense=Sense.MAXIMIZE):
    """max x + y  s.t.  x + 2y <= 6,  x, y in [0, 4]  (optimum 5 at x=4)."""
    m = Model(sense=sense)
    x, y = m.add_var_array(2, ub=4.0)
    m.add_constr_coo([0, 0], [x, y], [1.0, 2.0], -INF, 6.0)
    m.set_objective_array([x, y], [1.0, 1.0])
    return m, x, y


class TestLpSolve:
    def test_simple_maximise(self):
        m, x, _y = toy_lp()
        res = m.solve()
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0)
        assert res.value(x) == pytest.approx(4.0)

    def test_simple_minimise(self):
        m = Model()
        xy = m.add_var_array(2, lb=[1.0, 2.0])
        m.set_objective_array(xy, [1.0, 1.0])
        assert m.solve().objective == pytest.approx(3.0)

    def test_equality_constraint(self):
        m = Model(sense=Sense.MAXIMIZE)
        x, y = m.add_var_array(2, ub=10.0)
        m.add_constr_coo([0, 0], [x, y], [1.0, 1.0], 7.0, 7.0)
        m.set_objective_array([x], [1.0])
        res = m.solve()
        assert res.value(x) == pytest.approx(7.0)
        assert res.value(y) == pytest.approx(0.0)

    def test_infeasible(self):
        m = Model()
        x = m.add_var_array(1, ub=1.0)
        m.add_constr_coo([0], x, [1.0], 2.0, INF)
        m.set_objective_array(x, [1.0])
        res = m.solve()
        assert res.status is SolveStatus.INFEASIBLE
        with pytest.raises(InfeasibleError):
            res.require_solution()
        with pytest.raises(ModelError):
            res.value(0)

    def test_unbounded(self):
        m = Model(sense=Sense.MAXIMIZE)
        m.set_objective_array(m.add_var_array(1), [1.0])
        res = m.solve()
        assert res.status in (SolveStatus.UNBOUNDED, SolveStatus.ERROR)


class TestMilpSolve:
    def test_knapsack(self):
        m = Model(sense=Sense.MAXIMIZE)
        xs = m.add_var_array(3, vtype=VarType.BINARY)
        m.add_constr_coo([0, 0, 0], xs, [3.0, 4.0, 2.0], -INF, 6.0)
        m.set_objective_array(xs, [10.0, 13.0, 7.0])
        res = m.solve()
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(20.0)  # items 1 and 2

    def test_integer_rounding_matters(self):
        m = Model(sense=Sense.MAXIMIZE)
        x = m.add_var_array(1, vtype=VarType.INTEGER, ub=10.0)
        m.add_constr_coo([0], x, [2.0], -INF, 7.0)
        m.set_objective_array(x, [1.0])
        assert m.solve().objective == pytest.approx(3.0)

    def test_mip_gap_early_stop_accepts_incumbent(self):
        # with a huge allowed gap any incumbent is acceptable
        m = Model(sense=Sense.MAXIMIZE)
        xs = m.add_var_array(12, vtype=VarType.BINARY)
        m.add_constr_coo(np.zeros(12), xs, np.ones(12), -INF, 6.0)
        m.set_objective_array(xs, np.arange(1.0, 13.0))
        res = m.solve(SolverOptions(mip_gap=0.5))
        assert res.status in (SolveStatus.OPTIMAL, SolveStatus.GAP_LIMIT)
        assert res.objective is not None
        # optimum is 7+8+...+12 = 57; incumbent must be within 50%
        assert res.objective >= 57 * 0.5

    def test_milp_infeasible(self):
        m = Model()
        xy = m.add_var_array(2, vtype=VarType.BINARY)
        m.add_constr_coo([0, 0], xy, [1.0, 1.0], 3.0, INF)
        m.set_objective_array(xy[:1], [1.0])
        assert m.solve().status is SolveStatus.INFEASIBLE


class TestModelHygiene:
    def test_no_vars_raises(self):
        with pytest.raises(ModelError):
            Model().solve()

    def test_foreign_variable_rejected(self):
        # columns are plain indices: one from a bigger model is out of range
        m1, m2 = Model(), Model()
        foreign = m1.add_var_array(2)[1]
        m2.add_var_array(1)
        with pytest.raises(ModelError):
            m2.add_constr_coo([0], [foreign], [1.0], -INF, 1.0)

    def test_summary_counts(self):
        m = Model("demo")
        m.add_var_array(1, vtype=VarType.BINARY)
        m.add_var_array(1)
        text = m.summary()
        assert "2 vars" in text and "1 integer" in text

    def test_options_validation(self):
        with pytest.raises(ModelError):
            SolverOptions(time_limit=-1)
        with pytest.raises(ModelError):
            SolverOptions(mip_gap=1.5)
        with pytest.raises(ModelError):
            SolverOptions(node_limit=0)

    def test_options_reach_highs(self):
        m = Model()
        m.add_var_array(2, vtype=VarType.BINARY)
        opts = SolverOptions(time_limit=10, mip_gap=0.3, node_limit=5,
                             presolve=False)
        with m.session(opts) as session:
            got = {name: session._highs.getOptionValue(name)[1] for name in (
                "time_limit", "mip_rel_gap", "mip_max_nodes", "presolve",
                "solver")}
        assert got == {"time_limit": 10.0, "mip_rel_gap": 0.3,
                       "mip_max_nodes": 5, "presolve": "off",
                       "solver": "choose"}

    def test_lp_method_validation(self):
        with pytest.raises(ModelError):
            SolverOptions(lp_method="simplex")
        assert SolverOptions(lp_method="highs-ipm").lp_method == "highs-ipm"

    def test_lp_method_auto_switches_on_size(self):
        opts = SolverOptions()
        assert opts.resolve_lp_method(100) == "highs"
        assert opts.resolve_lp_method(10 ** 6) == "highs-ipm"
        forced = SolverOptions(lp_method="highs-ds")
        assert forced.resolve_lp_method(10 ** 6) == "highs-ds"

    def test_forced_ipm_still_solves(self):
        m, _x, _y = toy_lp()
        res = m.solve(SolverOptions(lp_method="highs-ipm"))
        assert res.objective == pytest.approx(5.0, abs=1e-6)

    def test_stats_populated(self):
        m = Model()
        x = m.add_var_array(1, ub=1.0)
        m.add_constr_coo([0], x, [1.0], -INF, 1.0)
        m.set_objective_array(x, [1.0])
        res = m.solve()
        assert res.stats["num_vars"] == 1
        assert res.stats["num_constraints"] == 1


class TestNonFiniteRejected:
    """NaN never reaches a backend: a NaN row bound used to slip past the
    ``lower > upper`` check and was then *dropped* by the LP path's
    finite-bound masks; a NaN coefficient surfaced as a raw SciPy error."""

    @pytest.mark.parametrize("bounds", [{"lb": NAN}, {"ub": NAN},
                                        {"ub": [1.0, NAN]}])
    def test_add_var_array(self, bounds):
        m = Model()
        with pytest.raises(ModelError):
            m.add_var_array(2, **bounds)
        assert m.num_vars == 0

    @pytest.mark.parametrize("data, lb, ub", [
        ([1.0, 1.0], -INF, NAN), ([1.0, 1.0], NAN, 1.0),
        ([1.0, 1.0], [0.0, NAN], [1.0, 1.0]),
        ([NAN, 1.0], -INF, 1.0), ([INF, 1.0], -INF, 1.0)])
    def test_add_constr_coo(self, data, lb, ub):
        m = Model()
        idx = m.add_var_array(2)
        with pytest.raises(ModelError):
            m.add_constr_coo([0, 1], idx, data, lb, ub)
        assert m.num_constraints == 0

    @pytest.mark.parametrize("bounds", [{"lb": NAN}, {"ub": NAN},
                                        {"lb": 0.0, "ub": [1.0, NAN]}])
    def test_set_var_bounds(self, bounds):
        m = Model()
        idx = m.add_var_array(2, ub=4.0)
        with pytest.raises(ModelError):
            m.set_var_bounds(idx, **bounds)
        compiled = m.compile()
        assert compiled.col_lower.tolist() == [0.0, 0.0]
        assert compiled.col_upper.tolist() == [4.0, 4.0]

    @pytest.mark.parametrize("coefs, const", [
        ([NAN, 1.0], 0.0), ([1.0, -INF], 0.0), ([1.0, 1.0], NAN)])
    def test_set_objective_array(self, coefs, const):
        m, x, y = toy_lp()
        with pytest.raises(ModelError):
            m.set_objective_array([x, y], coefs, const=const)
        assert m.compile().c.tolist() == [1.0, 1.0]  # objective kept

    def test_infinite_bounds_stay_legal(self):
        m = Model()
        idx = m.add_var_array(2, lb=-INF, ub=INF)
        m.add_constr_coo([0], idx[:1], [1.0], -INF, INF)
        m.set_var_bounds(idx, lb=-INF, ub=INF)

    def test_nan_capacity_fn_fails_the_build(self):
        """End to end: the capacity rows used to vanish and the solve came
        back "optimal" (finish 2.0) with no capacity constraint at all."""
        topo = topology.ring(4)
        config = TecclConfig(chunk_bytes=1.0,
                             capacity_fn=lambda i, j, k: float("nan"))
        with pytest.raises(ModelError):
            synthesize(topo, collectives.alltoall(topo.gpus, 1), config)
