"""A small LP/MILP modeling layer compiled to HiGHS.

The paper implements TE-CCL with ``gurobipy``; this module is the offline
substitute. It offers the subset of the gurobipy surface the formulations
need — named variables, linear constraints, a linear objective, time limits
and relative-gap early stop — and compiles to sparse matrices consumed by
:func:`scipy.optimize.milp` (the HiGHS branch-and-bound solver). Pure LPs are
routed through :func:`scipy.optimize.linprog` (HiGHS simplex/IPM), which is
noticeably faster for the LP formulation of §4.1.

Two APIs append to the same model:

* the **bulk API** (:meth:`Model.add_var_array`,
  :meth:`Model.add_constr_coo`, :meth:`Model.set_objective_array`) appends
  NumPy COO triplets straight into the compiled-matrix buffers with no
  per-term Python objects — the one way the LP/MILP formulations
  (``repro.core.lp`` / ``repro.core.milp``, A* round models included) are
  built;
* the **expression API** (:meth:`Model.add_var`, :meth:`Model.add_constr`)
  builds gurobipy-style :class:`LinExpr` objects — the small-model API, for
  ad-hoc models and for terms bolted onto a bulk-built model
  (:meth:`Model.var` hands out a handle for any column).

Both append *row blocks* in call order; :meth:`Model.compile` stacks the
blocks once and caches the result, so repeated solves of an unchanged model
do not re-stack constraints.

:meth:`Model.set_var_bounds` mutates bounds without touching the matrix
cache at all, so a bound-restricted re-solve of a built model re-stacks
nothing.

Example:
    >>> from repro.solver import Model, Sense, VarType
    >>> m = Model("toy", sense=Sense.MAXIMIZE)
    >>> x = m.add_var(name="x", ub=4)
    >>> y = m.add_var(name="y", ub=4)
    >>> _ = m.add_constr(x + 2 * y <= 6, name="cap")
    >>> m.set_objective(x + y)
    >>> result = m.solve()
    >>> round(result.objective, 6)
    5.0
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.errors import ModelError
from repro.obs.trace import span as _obs_span
from repro.solver.expr import (Constraint, LinExpr, Relation, Sense, Variable,
                               VarType, quicksum)
from repro.solver.options import DEFAULT_OPTIONS, SolverOptions
from repro.solver.result import SolveResult, SolveStatus

_MODEL_COUNTER = itertools.count()

_INF = float("inf")

@dataclass(frozen=True)
class _RowBlock:
    """One batch of compiled constraint rows in ``lb <= A x <= ub`` form.

    ``rows`` holds block-local row ids; duplicate ``(row, col)`` entries sum,
    matching :meth:`LinExpr.add_term` accumulation semantics.
    """

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    names: list[str] | None = None

    @property
    def num_rows(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class CompiledModel:
    """The matrix form of a model: ``row_lower <= A x <= row_upper``.

    ``c``/``obj_const`` describe the objective as written (sense **not**
    applied — minimisation backends negate for MAXIMIZE themselves).
    """

    A: sparse.csr_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    c: np.ndarray
    obj_const: float
    col_lower: np.ndarray
    col_upper: np.ndarray
    integrality: np.ndarray
    sense: Sense

    def canonical(self) -> tuple:
        """A normalised tuple for structural comparison of two models.

        Duplicate COO entries are summed and explicit zeros dropped, so
        two models compare equal when they describe the same mathematics,
        whichever API appended their rows.
        """
        matrix = self.A.copy()
        matrix.sum_duplicates()
        matrix.eliminate_zeros()
        matrix.sort_indices()
        return (matrix.shape, matrix.indptr, matrix.indices, matrix.data,
                self.row_lower, self.row_upper, self.c, self.obj_const,
                self.col_lower, self.col_upper, self.integrality,
                self.sense)


def compiled_equal(a: "CompiledModel", b: "CompiledModel") -> bool:
    """Exact structural equality of two compiled models."""
    for x, y in zip(a.canonical(), b.canonical()):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(np.asarray(x), np.asarray(y)):
                return False
        elif x != y:
            return False
    return True


class Model:
    """A linear optimization model.

    Variables and constraints are appended incrementally; :meth:`solve`
    compiles the model into sparse matrix form (cached between solves) and
    invokes HiGHS.
    """

    def __init__(self, name: str = "model", sense: Sense = Sense.MINIMIZE):
        self.name = name
        self.sense = sense
        self._model_id = next(_MODEL_COUNTER)
        # column stores (one entry per variable; the single source of truth)
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._vtype: list[VarType] = []
        self._num_integer = 0
        self._var_names: dict[int, str] = {}  # explicit names only
        # row stores: finalized COO blocks + not-yet-flushed expression rows
        self._blocks: list[_RowBlock] = []
        self._num_rows = 0
        self._pending: list[Constraint] = []
        # objective: exactly one of the two representations is active
        self._objective: LinExpr = LinExpr()
        self._obj_array: tuple[np.ndarray, np.ndarray, float] | None = None
        # compile cache, keyed on (num rows, num blocks, num vars)
        self._matrix_cache: tuple[tuple[int, int, int],
                                  sparse.csr_matrix,
                                  np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self._lb)

    @property
    def num_constraints(self) -> int:
        return self._num_rows + len(self._pending)

    @property
    def num_integer_vars(self) -> int:
        return self._num_integer

    def add_var(self, lb: float = 0.0, ub: float = _INF,
                vtype: VarType = VarType.CONTINUOUS,
                name: str | None = None) -> Variable:
        """Create a decision variable.

        Args:
            lb: lower bound (default 0, matching flow variables).
            ub: upper bound (default +inf; binaries are clamped to [0, 1]).
            vtype: variable domain.
            name: optional unique name (auto-generated when omitted).
        """
        if vtype is VarType.BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if lb > ub:
            raise ModelError(f"variable {name!r}: lower bound {lb} > upper bound {ub}")
        index = len(self._lb)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._vtype.append(vtype)
        if vtype is not VarType.CONTINUOUS:
            self._num_integer += 1
        if name is None:
            name = f"x{index}"
        else:
            self._var_names[index] = name
        self._matrix_cache = None  # matrix width changed
        return Variable(index, name, vtype, float(lb), float(ub),
                        self._model_id)

    def add_vars(self, keys: Iterable, lb: float = 0.0, ub: float = _INF,
                 vtype: VarType = VarType.CONTINUOUS,
                 name: str = "x") -> dict:
        """Create one variable per key, named ``name[key]`` (gurobipy-style)."""
        return {key: self.add_var(lb=lb, ub=ub, vtype=vtype,
                                  name=f"{name}[{key}]")
                for key in keys}

    def add_var_array(self, shape: int | tuple[int, ...],
                      lb: float | np.ndarray = 0.0,
                      ub: float | np.ndarray = _INF,
                      vtype: VarType = VarType.CONTINUOUS,
                      name: str = "x") -> np.ndarray:
        """Create a block of variables; returns their indices as an ndarray.

        No :class:`Variable` objects are built — the returned index array is
        meant for :meth:`add_constr_coo` / :meth:`set_objective_array` index
        arithmetic. ``lb``/``ub`` broadcast against ``shape``. ``name`` is a
        debugging prefix (``name[i]``), not materialised per variable.
        """
        count = int(np.prod(shape)) if isinstance(shape, tuple) else int(shape)
        if count < 0:
            raise ModelError(f"negative variable count {count}")
        start = len(self._lb)
        lb_arr = np.broadcast_to(np.asarray(lb, dtype=float), (count,))
        ub_arr = np.broadcast_to(np.asarray(ub, dtype=float), (count,))
        if vtype is VarType.BINARY:
            lb_arr = np.maximum(lb_arr, 0.0)
            ub_arr = np.minimum(ub_arr, 1.0)
        if np.any(lb_arr > ub_arr):
            bad = int(np.argmax(lb_arr > ub_arr))
            raise ModelError(
                f"variable block {name!r}[{bad}]: lower bound "
                f"{lb_arr[bad]} > upper bound {ub_arr[bad]}")
        self._lb.extend(lb_arr.tolist())
        self._ub.extend(ub_arr.tolist())
        self._vtype.extend([vtype] * count)
        if vtype is not VarType.CONTINUOUS:
            self._num_integer += count
        self._matrix_cache = None
        indices = np.arange(start, start + count, dtype=np.int64)
        return indices.reshape(shape) if isinstance(shape, tuple) else indices

    def var(self, index: int) -> Variable:
        """Materialise a :class:`Variable` handle for any index (bulk vars
        included)."""
        index = int(index)
        if not 0 <= index < len(self._lb):
            raise ModelError(f"variable index {index} out of range")
        return Variable(index, self.var_name(index), self._vtype[index],
                        self._lb[index], self._ub[index], self._model_id)

    def var_name(self, index: int) -> str:
        return self._var_names.get(index, f"x{index}")

    def variables(self) -> Iterable[Variable]:
        """Iterate handle objects for every variable (debug/export use)."""
        return (self.var(i) for i in range(len(self._lb)))

    def add_constr(self, constraint: Constraint, name: str | None = None) -> Constraint:
        """Register a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constr expects a Constraint (build one with <=, >= or ==); "
                f"got {type(constraint).__name__}")
        self._check_ownership(constraint.expr)
        if name:
            constraint.name = name
        self._pending.append(constraint)
        return constraint

    def add_constrs(self, constraints: Iterable[Constraint], name: str = "") -> list[Constraint]:
        """Register a batch of constraints; names get a running suffix."""
        added = []
        for i, constraint in enumerate(constraints):
            added.append(self.add_constr(
                constraint, name=f"{name}[{i}]" if name else None))
        return added

    def add_constr_coo(self, rows: Sequence | np.ndarray,
                       cols: Sequence | np.ndarray,
                       data: Sequence | np.ndarray,
                       lb: float | Sequence | np.ndarray,
                       ub: float | Sequence | np.ndarray,
                       num_rows: int | None = None,
                       names: list[str] | None = None) -> int:
        """Append a block of rows as COO triplets: ``lb <= A x <= ub``.

        ``rows`` are block-local (0-based); the block is placed after every
        previously added row. Duplicate ``(row, col)`` entries **sum**,
        matching :meth:`LinExpr.add_term`. A row with no entries is a valid
        all-zero row (the analogue of a constant expression constraint).
        Equality rows use ``lb == ub``; one-sided rows use ``±inf``.

        Returns the global index of the block's first row.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        data = np.asarray(data, dtype=float).ravel()
        if not (len(rows) == len(cols) == len(data)):
            raise ModelError(
                f"COO triplet lengths differ: {len(rows)}/{len(cols)}/"
                f"{len(data)}")
        lower = np.atleast_1d(np.asarray(lb, dtype=float)).ravel()
        upper = np.atleast_1d(np.asarray(ub, dtype=float)).ravel()
        if num_rows is None:
            num_rows = max(len(lower), len(upper),
                           int(rows.max()) + 1 if len(rows) else 0)
        lower = np.broadcast_to(lower, (num_rows,)) if len(lower) != num_rows \
            else lower
        upper = np.broadcast_to(upper, (num_rows,)) if len(upper) != num_rows \
            else upper
        if np.any(lower > upper):
            bad = int(np.argmax(lower > upper))
            raise ModelError(
                f"COO row {bad}: lower bound {lower[bad]} > upper bound "
                f"{upper[bad]}")
        if len(rows) and (rows.min() < 0 or rows.max() >= num_rows):
            raise ModelError("COO row index out of block range")
        if len(cols) and (cols.min() < 0 or cols.max() >= len(self._lb)):
            raise ModelError(
                "COO column index out of range (variable of another model?)")
        self._flush_pending()
        first_row = self._num_rows
        self._blocks.append(_RowBlock(
            rows=rows, cols=cols, data=data,
            lower=np.ascontiguousarray(lower, dtype=float),
            upper=np.ascontiguousarray(upper, dtype=float),
            names=names))
        self._num_rows += num_rows
        self._matrix_cache = None
        return first_row

    def set_var_bounds(self, indices: Sequence | np.ndarray,
                       lb: float | Sequence | np.ndarray | None = None,
                       ub: float | Sequence | np.ndarray | None = None,
                       ) -> None:
        """Mutate bounds of existing variables in bulk.

        Bounds live outside the stacked constraint matrix, so this never
        invalidates the compile cache — the mechanism behind bound-restricted
        feasibility probes (fix the late-epoch variables to zero, solve,
        restore) in the shared-model horizon search.
        """
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if not len(indices):
            return
        if indices.min() < 0 or indices.max() >= len(self._lb):
            raise ModelError("variable index out of range")
        where = indices.tolist()

        def proposed(store: list[float], bound) -> list[float]:
            if bound is None:
                return [store[idx] for idx in where]
            return np.broadcast_to(np.asarray(bound, dtype=float),
                                   indices.shape).tolist()

        # validate the would-be bounds before writing any: a raise leaves
        # the model as it was
        lower, upper = proposed(self._lb, lb), proposed(self._ub, ub)
        for idx, lo, hi in zip(where, lower, upper):
            if lo > hi:
                raise ModelError(
                    f"variable {self.var_name(idx)}: lower bound "
                    f"{lo} > upper bound {hi}")
        if lb is not None:
            for idx, value in zip(where, lower):
                self._lb[idx] = value
        if ub is not None:
            for idx, value in zip(where, upper):
                self._ub[idx] = value

    def set_objective(self, expr: LinExpr | Variable | float,
                      sense: Sense | None = None) -> None:
        """Set the (linear) objective; replaces any previous objective."""
        if isinstance(expr, Variable):
            expr = expr.to_expr()
        elif isinstance(expr, (int, float)):
            expr = LinExpr({}, float(expr))
        if not isinstance(expr, LinExpr):
            raise ModelError(f"objective must be linear, got {type(expr).__name__}")
        self._check_ownership(expr)
        self._objective = expr
        self._obj_array = None
        if sense is not None:
            self.sense = sense

    def set_objective_array(self, indices: Sequence | np.ndarray,
                            coefs: Sequence | np.ndarray,
                            const: float = 0.0,
                            sense: Sense | None = None) -> None:
        """Set the objective from parallel index/coefficient arrays.

        Duplicate indices sum (matching repeated :meth:`LinExpr.add_term`).
        Replaces any previously set objective.
        """
        indices = np.asarray(indices, dtype=np.int64).ravel()
        coefs = np.asarray(coefs, dtype=float).ravel()
        if len(indices) != len(coefs):
            raise ModelError(
                f"objective index/coef lengths differ: {len(indices)}/"
                f"{len(coefs)}")
        if len(indices) and (indices.min() < 0
                             or indices.max() >= len(self._lb)):
            raise ModelError("objective index out of range")
        self._obj_array = (indices, coefs, float(const))
        self._objective = LinExpr()
        if sense is not None:
            self.sense = sense

    def _check_ownership(self, expr: LinExpr) -> None:
        if expr.model_id is not None and expr.model_id != self._model_id:
            raise ModelError("expression references a variable from another model")
        n = len(self._lb)
        for idx in expr.terms:
            if idx >= n:
                raise ModelError("expression references a variable from another model")

    # ------------------------------------------------------------------
    # compilation + solve
    # ------------------------------------------------------------------
    def _flush_pending(self) -> None:
        """Convert queued expression constraints into one COO block."""
        if not self._pending:
            return
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        n = len(self._pending)
        lower = np.empty(n)
        upper = np.empty(n)
        names: list[str] = []
        for r, constraint in enumerate(self._pending):
            expr = constraint.expr
            rhs = -expr.const
            if constraint.relation is Relation.LE:
                lower[r], upper[r] = -_INF, rhs
            elif constraint.relation is Relation.GE:
                lower[r], upper[r] = rhs, _INF
            else:
                lower[r], upper[r] = rhs, rhs
            names.append(constraint.name)
            for idx, coef in expr.terms.items():
                rows.append(r)
                cols.append(idx)
                data.append(coef)
        self._blocks.append(_RowBlock(
            rows=np.asarray(rows, dtype=np.int64),
            cols=np.asarray(cols, dtype=np.int64),
            data=np.asarray(data, dtype=float),
            lower=lower, upper=upper, names=names))
        self._num_rows += n
        self._pending = []
        self._matrix_cache = None

    def _stacked_matrix(self) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """Stack all row blocks into one ``lb <= A x <= ub`` system (cached)."""
        self._flush_pending()
        key = (self._num_rows, len(self._blocks), len(self._lb))
        if self._matrix_cache is not None and self._matrix_cache[0] == key:
            return self._matrix_cache[1], self._matrix_cache[2], \
                self._matrix_cache[3]
        # an empty head keeps np.concatenate defined for a row-less model
        ints, floats = [np.empty(0, dtype=np.int64)], [np.empty(0)]
        row_parts = list(ints)
        offset = 0
        for block in self._blocks:
            row_parts.append(block.rows + offset)
            offset += block.num_rows
        rows = np.concatenate(row_parts)
        cols = np.concatenate(ints + [b.cols for b in self._blocks])
        data = np.concatenate(floats + [b.data for b in self._blocks])
        lower = np.concatenate(floats + [b.lower for b in self._blocks])
        upper = np.concatenate(floats + [b.upper for b in self._blocks])
        matrix = sparse.csr_matrix((data, (rows, cols)),
                                   shape=(self._num_rows, len(self._lb)))
        matrix.sum_duplicates()
        self._matrix_cache = (key, matrix, lower, upper)
        return matrix, lower, upper

    def _objective_arrays(self) -> tuple[np.ndarray, np.ndarray, float]:
        if self._obj_array is not None:
            return self._obj_array
        terms = self._objective.terms
        return (np.fromiter(terms.keys(), dtype=np.int64, count=len(terms)),
                np.fromiter(terms.values(), dtype=float, count=len(terms)),
                self._objective.const)

    def _objective_vector(self) -> np.ndarray:
        indices, coefs, _ = self._objective_arrays()
        c = np.zeros(len(self._lb))
        np.add.at(c, indices, coefs)
        if self.sense is Sense.MAXIMIZE:
            c = -c
        return c

    def compile(self) -> CompiledModel:
        """Compile to the canonical matrix form (sense not applied to ``c``).

        The constraint stack is cached across calls; only newly added rows
        trigger a re-stack. This is also the comparison point for the
        golden-pin tests: two models describing the same mathematics
        compile to :meth:`CompiledModel.canonical`-equal tuples regardless
        of which API built them.
        """
        with _obs_span("solver.compile", vars=self.num_vars,
                       rows=self.num_constraints):
            matrix, lower, upper = self._stacked_matrix()
            indices, coefs, const = self._objective_arrays()
            c = np.zeros(len(self._lb))
            np.add.at(c, indices, coefs)
            return CompiledModel(
                A=matrix, row_lower=lower, row_upper=upper, c=c,
                obj_const=const,
                col_lower=np.asarray(self._lb, dtype=float),
                col_upper=np.asarray(self._ub, dtype=float),
                integrality=np.fromiter(
                    (0 if v is VarType.CONTINUOUS else 1
                     for v in self._vtype),
                    dtype=np.int64, count=len(self._vtype))
                if self._num_integer
                else np.zeros(len(self._vtype), dtype=np.int64),
                sense=self.sense)

    def solve(self, options: SolverOptions = DEFAULT_OPTIONS) -> SolveResult:
        """Compile and solve; never raises on infeasibility (check status)."""
        if not self._lb:
            raise ModelError("model has no variables")
        start = time.perf_counter()
        if self._num_integer:
            result = self._solve_milp(options)
        else:
            result = self._solve_lp(options)
        result.solve_time = time.perf_counter() - start
        result.stats.setdefault("num_vars", self.num_vars)
        result.stats.setdefault("num_constraints", self.num_constraints)
        result.stats.setdefault("num_integer_vars", self.num_integer_vars)
        return result

    def _solve_milp(self, options: SolverOptions) -> SolveResult:
        c = self._objective_vector()
        compiled = self.compile()
        constraints = None
        if self.num_constraints:
            matrix, lower, upper = self._stacked_matrix()
            constraints = LinearConstraint(matrix, lower, upper)
        with _obs_span("solver.backend", backend="highs-milp",
                       vars=self.num_vars, rows=self.num_constraints) as sp:
            res = milp(c, constraints=constraints,
                       integrality=compiled.integrality,
                       bounds=Bounds(compiled.col_lower, compiled.col_upper),
                       options=options.to_scipy())
            sp.set_attr(status=int(res.status))
        return self._wrap(res, options, is_mip=True)

    def _solve_lp(self, options: SolverOptions) -> SolveResult:
        with _obs_span("solver.prepare", vars=self.num_vars,
                       rows=self.num_constraints):
            c = self._objective_vector()
            matrix, lower, upper = self._stacked_matrix()
            # linprog wants A_ub/b_ub and A_eq/b_eq; split two-sided rows.
            finite_lo = lower > -_INF
            finite_up = upper < _INF
            eq_mask = finite_lo & finite_up & (lower == upper)
            up_mask = finite_up & ~eq_mask
            lo_mask = finite_lo & ~eq_mask
            a_ub = b_ub = a_eq = b_eq = None
            if np.any(up_mask) or np.any(lo_mask):
                parts = []
                rhs_parts = []
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
            method = options.resolve_lp_method(len(self._lb))
        with _obs_span("solver.backend", backend=f"highs-lp:{method}",
                       vars=self.num_vars, rows=self.num_constraints) as sp:
            res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=np.column_stack([
                              np.asarray(self._lb),
                              np.asarray(self._ub)]),
                          method=method, options=lp_options)
            sp.set_attr(status=int(res.status))
        return self._wrap(res, options, is_mip=False)

    def _wrap(self, res, options: SolverOptions, is_mip: bool) -> SolveResult:
        values = np.asarray(res.x) if res.x is not None else None
        objective = None
        if values is not None:
            indices, coefs, const = self._objective_arrays()
            objective = const + float(coefs @ values[indices]) \
                if len(indices) else const
        gap = getattr(res, "mip_gap", None)
        if gap is not None:
            gap = float(gap)
        status = _map_status(res.status, values is not None,
                             is_mip=is_mip, gap=gap, options=options)
        return SolveResult(status=status, objective=objective, values=values,
                           solve_time=0.0, mip_gap=gap,
                           message=str(getattr(res, "message", "")),
                           stats={"backend_status": int(res.status)})

    # ------------------------------------------------------------------
    # debugging helpers
    # ------------------------------------------------------------------
    def rows(self) -> Iterable[tuple[str, dict[int, float], float, float]]:
        """Iterate rows as ``(name, terms, lower, upper)`` across all blocks.

        Reconstructs per-row term dicts from the COO buffers — meant for
        export/inspection, not hot paths.
        """
        self._flush_pending()
        terms: list[dict[int, float]] = [dict()
                                         for _ in range(self._num_rows)]
        names = [""] * self._num_rows
        lower = np.empty(self._num_rows)
        upper = np.empty(self._num_rows)
        offset = 0
        for block in self._blocks:
            for r, col, coef in zip(block.rows.tolist(),
                                    block.cols.tolist(),
                                    block.data.tolist()):
                terms[offset + r][col] = \
                    terms[offset + r].get(col, 0.0) + coef
            lower[offset:offset + block.num_rows] = block.lower
            upper[offset:offset + block.num_rows] = block.upper
            if block.names:
                names[offset:offset + block.num_rows] = block.names
            offset += block.num_rows
        for r in range(self._num_rows):
            yield names[r], terms[r], float(lower[r]), float(upper[r])

    def objective_terms(self) -> tuple[dict[int, float], float]:
        """The objective as ``(terms, const)`` regardless of how it was set."""
        indices, coefs, const = self._objective_arrays()
        terms: dict[int, float] = {}
        for idx, coef in zip(indices.tolist(), coefs.tolist()):
            terms[idx] = terms.get(idx, 0.0) + coef
        return terms, const

    def summary(self) -> str:
        """One-line description of the model size (useful in logs)."""
        return (f"{self.name}: {self.num_vars} vars "
                f"({self.num_integer_vars} integer), "
                f"{self.num_constraints} constraints, {self.sense.value}")


def _map_status(code: int, has_values: bool, *, is_mip: bool,
                gap: float | None, options: SolverOptions) -> SolveStatus:
    """Map scipy/HiGHS status codes onto :class:`SolveStatus`.

    scipy code 0 = optimal, 1 = iteration/time/node limit, 2 = infeasible,
    3 = unbounded, 4 = other.
    """
    if code == 0:
        # HiGHS reports code 0 when it stops at the requested mip_rel_gap too;
        # distinguish a genuine proof from a gap-limited stop for callers that
        # care (the paper reports "early stop" results separately).
        if is_mip and gap is not None and options.mip_gap > 0 and gap > 1e-9:
            return SolveStatus.GAP_LIMIT
        return SolveStatus.OPTIMAL
    if code == 1:
        return SolveStatus.TIME_LIMIT if has_values else SolveStatus.ERROR
    if code == 2:
        return SolveStatus.INFEASIBLE
    if code == 3:
        return SolveStatus.UNBOUNDED
    return SolveStatus.ERROR


__all__ = ["Model", "CompiledModel", "compiled_equal", "Sense", "VarType",
           "Variable", "LinExpr", "Constraint", "quicksum", "SolverOptions",
           "SolveResult", "SolveStatus"]
