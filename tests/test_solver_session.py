"""The live HiGHS session behind every solve.

``linprog`` used to solve every LP and ``milp`` every MILP; the session
replaced both. The reference implementations below are those paths (for an
LP: split two-sided rows into ``A_ub`` / ``A_eq``, call ``linprog``; for a
MILP: call ``milp`` with the options ``SolverOptions`` translated to; then
map scipy's status code), kept here as the oracle. The session holds the
model as stated — HiGHS row *i* is model row *i* — so a first solve is
checked against the oracle as follows:

* a MILP returns ``milp``'s status and values bit for bit (``milp`` hands
  HiGHS two-sided rows as they are, too) — bar the one deliberate fix, a
  MILP stopped at HiGHS's solution (node) limit holding an incumbent,
  which ``milp`` called an error;
* an LP returns ``linprog``'s status and objective (rel 1e-9) at a point
  feasible for the model; ``linprog`` split two-sided rows, so the simplex
  path, and with it the vertex, may differ.

A warm re-solve after bound edits must agree with a fresh one-shot solve
of the same bounds.
"""

from __future__ import annotations

import gc
import json
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.optimize._highspy import _core as highs_core
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core import lp as lp_module
from repro.core.epochs import build_epoch_plan
from repro.core.lp import LpBuilder, minimize_epochs_lp
from repro.core.milp import MilpBuilder, solve_milp
from repro.errors import (InfeasibleError, ModelError, ScheduleError,
                          SolveTimeoutError)
from repro.simulate.harness import random_instance
from repro.solver import (DEFAULT_OPTIONS, Model, Sense, Session,
                          SolverOptions, SolveStatus, VarType)
from repro.solver.model import _map_status

INF = float("inf")
LP_METHODS = ("auto", "highs", "highs-ds", "highs-ipm")
MILP_OPTIONS = {"default": SolverOptions(), "gap": SolverOptions(mip_gap=0.3),
                "no-presolve": SolverOptions(presolve=False),
                "node-limit": SolverOptions(node_limit=2)}
HMS = highs_core.HighsModelStatus
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "model_digests.json").read_text())


# ----------------------------------------------------------------------
# the reference: the linprog and milp paths the session replaced
# ----------------------------------------------------------------------
def _reference_map_status(code: int, has_values: bool) -> SolveStatus:
    """scipy status code → SolveStatus, as the LP and MILP paths mapped
    it (a MILP's early stop at its gap is told apart by the caller), with
    one deliberate fix: a limit stop is ``TIME_LIMIT`` whether or not it
    holds a point (those paths said ``ERROR`` without one, so a slow
    solve read as a failed one); ``has_values`` says which."""
    if code == 0:
        return SolveStatus.OPTIMAL
    if code == 1:
        return SolveStatus.TIME_LIMIT
    return {2: SolveStatus.INFEASIBLE,
            3: SolveStatus.UNBOUNDED}.get(code, SolveStatus.ERROR)


def reference_milp(model: Model, options: SolverOptions):
    """``(status, values)`` of a MILP through ``milp``, its options
    translated as ``SolverOptions.to_scipy`` did."""
    compiled = model.compile()
    milp_options: dict = {"disp": options.verbose,
                          "presolve": options.presolve}
    if options.time_limit is not None:
        milp_options["time_limit"] = float(options.time_limit)
    if options.mip_gap > 0.0:
        milp_options["mip_rel_gap"] = float(options.mip_gap)
    if options.node_limit is not None:
        milp_options["node_limit"] = int(options.node_limit)
    res = milp(-compiled.c if model.sense is Sense.MAXIMIZE else compiled.c,
               constraints=LinearConstraint(compiled.A, compiled.row_lower,
                                            compiled.row_upper)
               if model.num_constraints else None,
               integrality=compiled.integrality,
               bounds=Bounds(compiled.col_lower, compiled.col_upper),
               options=milp_options)
    values = None if res.x is None else np.asarray(res.x)
    status = _reference_map_status(res.status, values is not None)
    if status is SolveStatus.OPTIMAL and options.mip_gap > 0 \
            and res.mip_gap > 1e-9:
        status = SolveStatus.GAP_LIMIT
    return status, values


def reference_solve(model: Model, options: SolverOptions):
    """``(status, values)`` of ``model`` through ``linprog`` or ``milp``."""
    if model.num_integer_vars:
        return reference_milp(model, options)
    c = model._objective_vector()
    if model.sense is Sense.MAXIMIZE:
        c = -c
    matrix, lower, upper = model._stacked_matrix()
    finite_lo = lower > -INF
    finite_up = upper < INF
    eq_mask = finite_lo & finite_up & (lower == upper)
    up_mask = finite_up & ~eq_mask
    lo_mask = finite_lo & ~eq_mask
    a_ub = b_ub = a_eq = b_eq = None
    if np.any(up_mask) or np.any(lo_mask):
        parts, rhs_parts = [], []
        if np.any(up_mask):
            parts.append(matrix[up_mask])
            rhs_parts.append(upper[up_mask])
        if np.any(lo_mask):
            parts.append(-matrix[lo_mask])
            rhs_parts.append(-lower[lo_mask])
        a_ub = sparse.vstack(parts, format="csr") \
            if len(parts) > 1 else parts[0]
        b_ub = np.concatenate(rhs_parts)
    if np.any(eq_mask):
        a_eq = matrix[eq_mask]
        b_eq = lower[eq_mask]
    lp_options: dict = {"disp": options.verbose,
                        "presolve": options.presolve}
    if options.time_limit is not None:
        lp_options["time_limit"] = float(options.time_limit)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=np.column_stack([model._lb, model._ub]),
                  method=options.resolve_lp_method(model.num_vars),
                  options=lp_options)
    values = None if res.x is None else np.asarray(res.x)
    return _reference_map_status(res.status, values is not None), values


def assert_feasible(model: Model, values: np.ndarray,
                    tol: float = 1e-7) -> None:
    """``values`` satisfies every row and column bound of ``model``."""
    compiled = model.compile()
    activity = compiled.A @ values
    for got, lower, upper in ((activity, compiled.row_lower,
                               compiled.row_upper),
                              (values, compiled.col_lower,
                               compiled.col_upper)):
        assert np.all(got >= lower - tol * (1 + np.abs(lower)))
        assert np.all(got <= upper + tol * (1 + np.abs(upper)))


def assert_first_solve_matches(model: Model, options: SolverOptions,
                               solve=Model.solve):
    """The oracle's status; for a MILP its values bit for bit, for an LP
    its objective (rel 1e-9) at a feasible point."""
    status, values = reference_solve(model, options)
    got = solve(model, options)
    if got.stats["backend_status"] == int(HMS.kSolutionLimit) \
            and values is not None:
        status = SolveStatus.TIME_LIMIT  # milp: ERROR, values attached
    assert got.status is status
    if values is None:
        assert got.values is None
    elif model.num_integer_vars:
        assert np.array_equal(got.values, values)
    else:
        compiled = model.compile()
        assert got.objective == pytest.approx(
            compiled.obj_const + float(compiled.c @ values),
            rel=1e-9, abs=1e-9)
        assert_feasible(model, got.values)
    return got


def random_lp(seed: int, vtype: VarType = VarType.CONTINUOUS) -> Model:
    """A small LP mixing every row and column shape the builders emit:
    two-sided, equality, one-sided and free rows; boxed, ``-inf``-lower and
    free columns; either sense. Rows are centred on a point inside the
    column box, so most instances are optimal; every 7th is made
    infeasible and every 11th unbounded. ``vtype=INTEGER`` makes every
    column integral and boxes it in [-10, 10] (a MILP of the same rows; an
    unboxed integer column can send branch-and-bound off to infinity)."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(3, 14)), int(rng.integers(2, 11))
    sense = Sense.MAXIMIZE if seed % 2 else Sense.MINIMIZE
    model = Model(f"random{seed}", sense=sense)
    kinds = rng.integers(0, 4, size=n)            # 0/1 boxed, 2 -inf, 3 free
    lb = np.where(kinds < 2, rng.uniform(-2, 0, n), -INF)
    ub = np.where(kinds < 3, rng.uniform(1, 5, n), INF)
    point = np.where(kinds < 3, rng.uniform(0, 1, n), rng.uniform(-1, 1, n))
    if vtype is not VarType.CONTINUOUS:
        lb, ub = np.maximum(lb, -10.0), np.minimum(ub, 10.0)
    cols = model.add_var_array(n, lb=lb, ub=ub, vtype=vtype)
    nnz = int(rng.integers(n, 3 * n + 1))
    rows, where = rng.integers(0, m, size=nnz), rng.integers(0, n, size=nnz)
    data = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], size=nnz)
    centre = np.zeros(m)
    np.add.at(centre, rows, data * point[where])
    if seed % 7 == 0:
        centre[0] += 1e3                          # out of reach: infeasible
    row_kind = rng.integers(0, 5, size=m)  # two-sided, eq, ub, lb, free
    slack = rng.uniform(0.5, 2, m)
    row_lb = np.select([row_kind == 0, row_kind == 1, row_kind == 3],
                       [centre - slack, centre, centre - slack], -INF)
    row_ub = np.select([row_kind == 0, row_kind == 1, row_kind == 2],
                       [centre + slack, centre, centre + slack], INF)
    model.add_constr_coo(rows, cols[where], data, row_lb, row_ub,
                         num_rows=m)
    # push every -inf-lower column towards its finite upper bound, leave
    # free columns costless — unless this instance is to be unbounded
    towards_ub = 1.0 if sense is Sense.MAXIMIZE else -1.0
    cost = np.where(kinds == 2, towards_ub * rng.uniform(0.5, 3, n),
                    np.where(kinds == 3, 0.0, rng.uniform(-3, 3, n)))
    if seed % 11 == 0:
        model.add_var_array(1, lb=-INF, ub=INF)   # in no row
        cols, cost = np.append(cols, n), np.append(cost, 1.0)
    model.set_objective_array(cols, cost, const=float(rng.uniform(-1, 1)))
    return model


def knapsack(seed: int, n: int = 80, m: int = 10) -> Model:
    """A multi-row 0/1 knapsack: values 10–99, weights 5–99, capacities
    900–1099. At 80 items a node limit of 2 stops HiGHS holding an
    incumbent (model status ``kSolutionLimit``)."""
    rng = np.random.default_rng(seed)
    values = rng.integers(10, 100, n).astype(float)
    weights = rng.integers(5, 100, (m, n)).astype(float)
    capacity = rng.integers(900, 1100, m).astype(float)
    model = Model(f"knapsack{seed}", sense=Sense.MAXIMIZE)
    x = model.add_var_array(n, vtype=VarType.BINARY)
    rows, cols = np.nonzero(weights)
    model.add_constr_coo(rows, x[cols], weights[rows, cols], -INF, capacity)
    model.set_objective_array(x, values)
    return model


def unbounded_milp() -> Model:
    """max x + y over integers x, y >= 0 with x - y <= 1: unbounded along
    x = y. HiGHS proves it unbounded without presolve; with presolve it
    reports unbounded-or-infeasible (``ERROR``)."""
    model = Model("unbounded", sense=Sense.MAXIMIZE)
    x = model.add_var_array(2, vtype=VarType.INTEGER)
    model.add_constr_coo([0, 0], x, [1.0, -1.0], -INF, 1.0)
    model.set_objective_array(x, [1.0, 1.0])
    return model


#: the random MILP sweep: small knapsacks, some of which a node limit of 2
#: stops holding an incumbent, ``random_lp``'s shapes over integers, and
#: one MILP proved unbounded
RANDOM_MILPS = {
    **{f"knapsack-{s}": partial(knapsack, s, 30, 5) for s in range(8)},
    **{f"integer-lp-{s}": partial(random_lp, s, VarType.INTEGER)
       for s in range(16)},
    "unbounded": unbounded_milp}


# ----------------------------------------------------------------------
# first solves: linprog's status and objective, milp's values
# ----------------------------------------------------------------------
class TestFirstSolveIdentical:
    @pytest.mark.parametrize("method", LP_METHODS)
    @pytest.mark.parametrize("seed", range(40))
    def test_random_lps(self, seed, method):
        assert_first_solve_matches(random_lp(seed),
                                   SolverOptions(lp_method=method))

    def test_random_lps_reach_every_status(self):
        statuses = {reference_solve(random_lp(seed), SolverOptions())[0]
                    for seed in range(40)}
        assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE,
                            SolveStatus.UNBOUNDED}

    @pytest.mark.parametrize("option", MILP_OPTIONS)
    @pytest.mark.parametrize("name", RANDOM_MILPS)
    def test_random_milps(self, name, option):
        assert_first_solve_matches(RANDOM_MILPS[name](), MILP_OPTIONS[option])

    def test_random_milps_reach_every_status(self):
        statuses = {make().solve(options).status
                    for make in RANDOM_MILPS.values()
                    for options in MILP_OPTIONS.values()}
        assert statuses == {SolveStatus.OPTIMAL, SolveStatus.GAP_LIMIT,
                            SolveStatus.TIME_LIMIT, SolveStatus.INFEASIBLE,
                            SolveStatus.UNBOUNDED, SolveStatus.ERROR}

    @pytest.mark.parametrize("presolve", [True, False])
    def test_presolve_setting_is_passed_through(self, presolve):
        options = SolverOptions(presolve=presolve)
        for seed in range(10):
            assert_first_solve_matches(random_lp(seed), options)

    @pytest.mark.parametrize("family, seed", [
        *(("lp", s) for s in sorted(GOLDEN["lp"], key=int)),
        *(("lp_capacity_fn", s) for s in sorted(GOLDEN["lp_capacity_fn"],
                                                key=int)),
        *(("lp_aggregated", s) for s in sorted(GOLDEN["lp_aggregated"],
                                               key=int)),
        *(("milp", s) for s in sorted(GOLDEN["milp"], key=int))])
    def test_golden_lp_instances(self, family, seed):
        """Under every lp_method (a MILP ignores it, so its values never
        move) and, for a MILP, every MILP option set too."""
        topo, demand, config = random_instance(int(seed))
        if family == "lp_capacity_fn":
            share = 0.5 + 0.1 * int(seed)
            config = replace(config, capacity_fn=lambda i, j, k, _t=topo:
                             _t.link(i, j).capacity * share)
        elif family == "lp_aggregated":
            topo = topology.ring(4 + int(seed) % 2, capacity=1.0, alpha=0.0)
            demand = collectives.alltoall(topo.gpus, 1 + int(seed) % 2)
        pin = GOLDEN[family][seed]
        plan = build_epoch_plan(topo, config, num_epochs=pin["num_epochs"])
        builder = MilpBuilder if family == "milp" else LpBuilder
        problem = builder(topo, demand, config, plan).build()
        assert problem.model.num_vars == pin["cols"]
        for options in (*(replace(config.solver, lp_method=method)
                          for method in LP_METHODS),
                        *(MILP_OPTIONS.values() if family == "milp" else ())):
            assert_first_solve_matches(problem.model, options)

    @pytest.mark.parametrize("seed", sorted(GOLDEN["solve_milp"], key=int))
    def test_golden_solve_milp_instances(self, seed, monkeypatch):
        """Every model the MILP facade solves, horizon rungs included."""
        solved, solve = [], Model.solve

        def checked(model, options=DEFAULT_OPTIONS):
            solved.append(model.num_integer_vars)
            return assert_first_solve_matches(model, options, solve)

        monkeypatch.setattr(Model, "solve", checked)
        try:
            solve_milp(*random_instance(int(seed)))
        except (InfeasibleError, ScheduleError):
            pass
        assert solved and all(solved)


# ----------------------------------------------------------------------
# the session holds the model as stated: HiGHS row i is model row i
# ----------------------------------------------------------------------
def _toy_milp() -> Model:
    """max x0 + 3 x1 + x2 + 0.5 over x0 <= 4, binary x1, integer
    1 <= x2 <= 5: x0 + 2 x1 <= 6, -1 <= x0 - x2 <= 2, x1 + x2 == 3."""
    model = Model("toy", sense=Sense.MAXIMIZE)
    (x,) = model.add_var_array(1, ub=4.0)
    (y,) = model.add_var_array(1, vtype=VarType.BINARY)
    (z,) = model.add_var_array(1, lb=1.0, ub=5.0, vtype=VarType.INTEGER)
    model.add_constr_coo([0, 0, 1, 1, 2, 2], [x, y, x, z, y, z],
                         [1.0, 2.0, 1.0, -1.0, 1.0, 1.0],
                         [-INF, -1.0, 3.0], [6.0, 2.0, 3.0])
    model.set_objective_array([x, y, z], [1.0, 3.0, 1.0], const=0.5)
    return model


def _ring_milp() -> Model:
    """The TE-CCL MILP of a ring4 ALLGATHER at K = 6."""
    ring4 = topology.ring(4, capacity=1.0)
    config = TecclConfig(chunk_bytes=1.0, num_epochs=6)
    return MilpBuilder(ring4, collectives.allgather(ring4.gpus, 1), config,
                       build_epoch_plan(ring4, config, 6)).build().model


def _read_back(path: Path):
    """A fresh HiGHS instance holding the model file at ``path``."""
    highs = highs_core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == highs_core.HighsStatus.kOk
    return highs


class TestSessionHoldsTheModel:
    @pytest.mark.parametrize("make", [
        *(partial(random_lp, seed) for seed in range(12)),
        *(partial(random_lp, seed, VarType.INTEGER) for seed in range(4)),
        lambda: _ring_lp()[0], _toy_milp], ids=[
        *(f"lp-{seed}" for seed in range(12)),
        *(f"integer-lp-{seed}" for seed in range(4)), "ring-lp", "toy"])
    def test_rows_columns_and_objective_are_the_compiled_model(self, make):
        """HiGHS row i is model row i — same count, same bounds (a
        two-sided row is one row), same matrix — and the objective keeps
        its sense, costs (not negated under MAXIMIZE) and constant."""
        model = make()
        compiled = model.compile()
        with model.session() as session:
            highs = session._highs
            lp = highs.getLp()
        assert (highs.getNumRow(), highs.getNumCol()) \
            == (model.num_constraints, model.num_vars)
        assert np.array_equal(lp.row_lower_, compiled.row_lower)
        assert np.array_equal(lp.row_upper_, compiled.row_upper)
        matrix = sparse.csc_matrix(
            (lp.a_matrix_.value_, lp.a_matrix_.index_, lp.a_matrix_.start_),
            shape=compiled.A.shape)
        assert (matrix != compiled.A).nnz == 0
        assert np.array_equal(lp.col_cost_, compiled.c)
        assert lp.offset_ == compiled.obj_const
        assert lp.sense_ == (highs_core.ObjSense.kMaximize
                             if model.sense is Sense.MAXIMIZE
                             else highs_core.ObjSense.kMinimize)

    def test_refused_model_raises_with_highs_reason(self):
        model = Model("huge")
        x = model.add_var_array(2, ub=1.0)
        model.add_constr_coo([0, 0], x, [1e16, 1.0], -INF, 1.0)
        model.set_objective_array(x, [1.0, 1.0])
        with pytest.raises(ModelError, match=r"refused huge.*1e\+15"):
            model.session()
        with pytest.raises(ModelError, match=r"1e\+15"):
            model.solve()

    @pytest.mark.parametrize("make", [
        _toy_milp, partial(knapsack, 1, 30, 5), partial(random_lp, 9),
        lambda: _ring_lp()[0], _ring_milp],
        ids=["toy", "knapsack", "lp", "ring-lp", "ring-milp"])
    def test_write_then_read_keeps_the_model(self, make, tmp_path):
        model, path = make(), tmp_path / "model.mps"
        with model.session() as session:
            session.write(path)
            optimum = session.solve().objective
        highs, matrix = _read_back(path), model.compile().A.copy()
        matrix.eliminate_zeros()  # HiGHS keeps no zero entry
        assert (highs.getNumRow(), highs.getNumCol(), highs.getNumNz()) \
            == (model.num_constraints, model.num_vars, matrix.nnz)
        highs.run()
        assert highs.getInfo().objective_function_value \
            == pytest.approx(optimum, rel=1e-9)

    def test_lp_format_states_a_two_sided_row_as_two(self, tmp_path):
        model, path = _toy_milp(), tmp_path / "model.lp"
        with model.session() as session:
            session.write(path)
            optimum = session.solve().objective
        highs = _read_back(path)
        assert (highs.getNumRow(), highs.getNumCol()) \
            == (model.num_constraints + 1, model.num_vars)
        assert highs.getLp().sense_ == highs_core.ObjSense.kMaximize
        highs.run()
        assert highs.getInfo().objective_function_value \
            == pytest.approx(optimum, rel=1e-9)

    def test_write_includes_bound_edits(self, tmp_path):
        model, x = _weighted_pick()
        with model.session() as session:
            model.set_var_bounds(x[:2], ub=0.0)
            session.write(tmp_path / "model.mps")
        highs = _read_back(tmp_path / "model.mps")
        assert list(highs.getLp().col_upper_) == [0.0, 0.0] + [4.0] * 4

    def test_write_refuses_what_it_cannot_write(self, tmp_path):
        model, _x = _weighted_pick()
        with model.session() as session:
            with pytest.raises(ModelError, match=r"\.lp or \.mps"):
                session.write(tmp_path / "model.txt")
            with pytest.raises(OSError):
                session.write(tmp_path / "missing" / "model.lp")
            session.close()
            with pytest.raises(ModelError, match="closed"):
                session.write(tmp_path / "model.lp")

    def test_empty_model_has_no_session(self):
        with pytest.raises(ModelError, match="no variables"):
            Model("empty").session()


# ----------------------------------------------------------------------
# warm re-solves: equal to fresh solves of the same bounds
# ----------------------------------------------------------------------
def _weighted_pick(vtype: VarType = VarType.CONTINUOUS,
                   ) -> tuple[Model, np.ndarray]:
    """max Σ w·x  s.t.  Σ x <= 10,  x in [0, 4]: six items, distinct w."""
    model = Model("pick", sense=Sense.MAXIMIZE)
    x = model.add_var_array(6, ub=4.0, vtype=vtype)
    model.add_constr_coo(np.zeros(6), x, np.ones(6), -INF, 10.0)
    model.set_objective_array(x, [6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    return model, x


def _ring_lp() -> tuple[Model, np.ndarray]:
    ring6 = topology.ring(6, capacity=1.0)
    config = TecclConfig(chunk_bytes=1.0)
    inc = lp_module.IncrementalLp(ring6, collectives.alltoall(ring6.gpus, 1),
                                  config, 12)
    return inc.model, inc.r_vars.column


class TestWarmEqualsFresh:
    @staticmethod
    def _assert_fresh(session: Session, model: Model, options):
        warm, fresh = session.solve(), model.solve(options)
        assert warm.status is fresh.status
        if fresh.objective is None:
            assert warm.objective is None and warm.values is None
        else:
            assert warm.objective == pytest.approx(fresh.objective,
                                                   rel=1e-9, abs=1e-12)
        return warm

    @pytest.mark.parametrize("method, vtype", [
        *((method, VarType.CONTINUOUS) for method in LP_METHODS),
        *((method, VarType.INTEGER) for method in LP_METHODS)],
        ids=[*LP_METHODS, *(f"{method}-integer" for method in LP_METHODS)])
    def test_edit_sequence_on_one_session(self, method, vtype):
        options = SolverOptions(lp_method=method)
        model, x = _weighted_pick(vtype)
        with model.session(options) as session:
            assert self._assert_fresh(session, model, options).objective \
                == pytest.approx(6 * 4 + 5 * 4 + 4 * 2)
            model.set_var_bounds(x[:2], ub=0.0)                  # clamp
            assert self._assert_fresh(session, model, options).objective \
                == pytest.approx(4 * 4 + 3 * 4 + 2 * 2)
            model.set_var_bounds(x[:2], ub=4.0)                  # release
            self._assert_fresh(session, model, options)
            model.set_var_bounds(x[5:], lb=3.0)                  # raise lb
            assert self._assert_fresh(session, model, options).objective \
                == pytest.approx(6 * 4 + 5 * 3 + 1 * 3)
            model.set_var_bounds(x, lb=2.0)                      # infeasible
            assert self._assert_fresh(session, model, options).status \
                is SolveStatus.INFEASIBLE
            model.set_var_bounds(x, lb=0.0)                      # release
            assert self._assert_fresh(session, model, options).objective \
                == pytest.approx(6 * 4 + 5 * 4 + 4 * 2)
            if vtype is VarType.INTEGER:  # re-runs the MIP, not the LP's
                assert [session._highs.getOptionValue(name)[1]  # warm path
                        for name in ("solver", "presolve")] == ["choose", "on"]

    @pytest.mark.parametrize("method, ipm_resolve", [
        ("highs", False), ("highs-ds", False), ("highs-ipm", True)])
    def test_resolve_algorithm_follows_lp_method(self, method, ipm_resolve):
        """Simplex LPs re-solve warm by dual simplex; an IPM LP runs IPM
        afresh (a basis buys IPM nothing; warm simplex on the large
        degenerate LPs that pick IPM is the slow path)."""
        options = SolverOptions(lp_method=method)
        model, reads = _ring_lp()
        with model.session(options) as session:
            session.solve()
            model.set_var_bounds(reads[len(reads) // 2:], ub=0.0)
            self._assert_fresh(session, model, options)
            _, solver = session._highs.getOptionValue("solver")
            _, presolve = session._highs.getOptionValue("presolve")
            assert (solver, presolve) == (("ipm", "on") if ipm_resolve
                                          else ("simplex", "off"))

    def test_ipm_resolve_is_a_fresh_solve_on_the_loaded_matrix(self):
        ring6 = topology.ring(6, capacity=1.0)
        config = TecclConfig(chunk_bytes=1.0,
                             solver=SolverOptions(lp_method="highs-ipm"))
        inc = lp_module.IncrementalLp(
            ring6, collectives.alltoall(ring6.gpus, 1), config, 12)
        with inc.session:
            for num_epochs in (12, 10, 8, 12):
                warm = inc.solve_at(num_epochs)
                fresh = inc.model.solve(config.solver)
                assert warm.status is fresh.status is SolveStatus.OPTIMAL
                assert np.array_equal(warm.values, fresh.values)

    def test_rejected_edit_never_reaches_the_session(self):
        model, x = _weighted_pick()
        with model.session() as session:
            session.solve()
            with pytest.raises(ModelError):
                model.set_var_bounds(x, lb=[0, 0, 0, 0, 0, 5.0])
            with pytest.raises(ModelError):
                model.set_var_bounds(x[:3], ub=[0.0, -1.0, 0.0])
            warm = self._assert_fresh(session, model, SolverOptions())
            assert warm.objective == pytest.approx(6 * 4 + 5 * 4 + 4 * 2)

    def test_time_limited_session_gives_every_solve_its_own_budget(self):
        # HiGHS's run clock keeps counting across runs of one instance
        options = SolverOptions(time_limit=30.0)
        model, _reads = _ring_lp()
        with model.session(options) as session:
            session.solve()
            spent = session._highs.getRunTime()
            session.solve()
            _, limit = session._highs.getOptionValue("time_limit")
            assert limit == pytest.approx(30.0 + spent)

    def test_ring_lp_lower_bound_probes(self):
        options = TecclConfig(chunk_bytes=1.0).solver
        model, reads = _ring_lp()
        late = reads[len(reads) // 2:]
        with model.session(options) as session:
            self._assert_fresh(session, model, options)
            model.set_var_bounds(late, ub=0.0)
            self._assert_fresh(session, model, options)
            model.set_var_bounds(late, ub=INF)
            model.set_var_bounds(late[:3], lb=0.25)
            self._assert_fresh(session, model, options)
            model.set_var_bounds(late[:3], lb=0.0)
            self._assert_fresh(session, model, options)

    def test_closed_or_reshaped_session_refuses_to_solve(self):
        model, _x = _weighted_pick()
        session = model.session()
        model.add_var_array(1)
        with pytest.raises(ModelError, match="shape"):
            session.solve()
        session.close()
        with pytest.raises(ModelError, match="closed"):
            session.solve()

    def test_milp_has_a_session(self):
        """The session refuses nothing that ``Model.solve`` accepts."""
        model = Model(sense=Sense.MAXIMIZE)
        x = model.add_var_array(2, vtype=VarType.BINARY)
        model.set_objective_array(x, [1.0, 2.0])
        with model.session() as session:
            result = session.solve()
        assert (result.status, result.objective) == (SolveStatus.OPTIMAL, 3.0)


# ----------------------------------------------------------------------
# status mapping and limits
# ----------------------------------------------------------------------
class TestStatusMapping:
    @pytest.mark.parametrize("code", list(HMS.__members__.values()),
                             ids=list(HMS.__members__))
    def test_table_equals_the_linprog_composition(self, code):
        # an LP carries values only when HiGHS reports it optimal
        scipy_code, _ = _highs_to_scipy_status_message(code, "")
        expected = _reference_map_status(scipy_code, code == HMS.kOptimal)
        if code == HMS.kSolutionLimit:
            expected = SolveStatus.TIME_LIMIT  # a limit stop, as above
        assert _map_status(code) is expected

    @pytest.mark.parametrize("incumbent", [True, False])
    @pytest.mark.parametrize("code", list(HMS.__members__.values()),
                             ids=list(HMS.__members__))
    def test_table_equals_the_milp_composition(self, code, incumbent):
        # milp returns a point when HiGHS is optimal, or stopped at a limit
        # holding an incumbent — with scipy code 4 at the solution limit
        scipy_code, _ = _highs_to_scipy_status_message(code, "")
        limit = code in (HMS.kTimeLimit, HMS.kIterationLimit,
                         HMS.kSolutionLimit)
        expected = _reference_map_status(
            scipy_code, code == HMS.kOptimal or (limit and incumbent))
        if code == HMS.kSolutionLimit:
            expected = SolveStatus.TIME_LIMIT  # the deliberate fix
        assert _map_status(code) is expected

    def test_time_limit_returns_no_values(self):
        model, _reads = _ring_lp()
        result = model.solve(SolverOptions(time_limit=1e-9))
        assert result.status is SolveStatus.TIME_LIMIT
        assert result.values is None and result.objective is None
        assert result.stats["backend_status"] == int(HMS.kTimeLimit)
        with pytest.raises(SolveTimeoutError, match="Time limit reached"):
            result.require_solution()

    def test_node_limited_milp_returns_its_incumbent(self):
        """``milp`` reported this ``ERROR``, values attached, so
        ``require_solution()`` raised on a usable point."""
        result = knapsack(5).solve(SolverOptions(node_limit=2))
        assert result.stats["backend_status"] == int(HMS.kSolutionLimit)
        assert result.status is SolveStatus.TIME_LIMIT
        assert result.require_solution().objective == 1591.0
        assert 0.0 < result.mip_gap < 0.05


# ----------------------------------------------------------------------
# lifetime: the HiGHS memory goes with the solve or the search
# ----------------------------------------------------------------------
@pytest.fixture
def live_sessions(monkeypatch):
    """Weak references to every session opened while the test runs, with
    the cyclic collector off: only reference counting may free them."""
    refs = []
    init = Session.__init__

    def recording(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Session, "__init__", recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


class TestSessionLifetime:
    def test_one_shot_solve_drops_its_session(self, live_sessions):
        model, _x = _weighted_pick()
        assert model.solve().status is SolveStatus.OPTIMAL
        assert len(live_sessions) == 1
        assert live_sessions[0]() is None

    def test_no_session_outlives_the_horizon_search(self, live_sessions):
        ring6 = topology.ring(6, capacity=1.0)
        outcome = minimize_epochs_lp(ring6,
                                     collectives.alltoall(ring6.gpus, 1),
                                     TecclConfig(chunk_bytes=1.0))
        assert outcome.result.stats["horizon_solves"] >= 2
        assert live_sessions, "the search opened no session"
        assert all(ref() is None for ref in live_sessions)

    def test_search_holds_one_session_for_anchor_and_probes(
            self, live_sessions):
        ring6 = topology.ring(6, capacity=1.0)
        outcome = minimize_epochs_lp(ring6,
                                     collectives.alltoall(ring6.gpus, 1),
                                     TecclConfig(chunk_bytes=1.0))
        # one per anchor rung; every probe re-solves on the anchor's
        assert outcome.result.stats["horizon_solves"] \
            > outcome.result.stats["horizon_attempts"]
        assert len(live_sessions) == outcome.result.stats["horizon_attempts"]
