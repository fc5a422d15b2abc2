"""A small LP/MILP modeling layer compiled to HiGHS.

The paper implements TE-CCL with ``gurobipy``; this module is the offline
substitute. A model is stated as arrays and nothing else:

* :meth:`Model.add_var_array` appends a block of columns (bounds and
  integrality as NumPy arrays) and returns their indices;
* :meth:`Model.add_constr_coo` appends a block of rows ``lb <= A x <= ub``
  as COO triplets over those indices;
* :meth:`Model.set_objective_array` sets the linear objective from parallel
  index/coefficient arrays.

:meth:`Model.compile` stacks the row blocks once and caches the result, so
repeated solves of an unchanged model do not re-stack constraints;
:meth:`Model.set_var_bounds` mutates bounds without touching that cache, so
a bound-restricted re-solve of a built model re-stacks nothing. Compiled
models go to :func:`scipy.optimize.milp` (the HiGHS branch-and-bound
solver); pure LPs are routed through :func:`scipy.optimize.linprog` (HiGHS
simplex/IPM), which is noticeably faster for the LP formulation of §4.1.

Example (maximise ``x + y`` subject to ``x + 2y <= 6``, ``x, y <= 4``):
    >>> import numpy as np
    >>> from repro.solver import Model, Sense
    >>> m = Model("toy", sense=Sense.MAXIMIZE)
    >>> x, y = m.add_var_array(2, ub=4.0)
    >>> _ = m.add_constr_coo([0, 0], [x, y], [1.0, 2.0], -np.inf, 6.0)
    >>> m.set_objective_array([x, y], [1.0, 1.0])
    >>> result = m.solve()
    >>> round(result.objective, 6)
    5.0
"""

from __future__ import annotations

import enum
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.errors import ModelError
from repro.obs.trace import span as _obs_span
from repro.solver.options import DEFAULT_OPTIONS, SolverOptions
from repro.solver.result import SolveResult, SolveStatus

_INF = float("inf")
_NO_INTS = np.empty(0, dtype=np.int64)
_NO_FLOATS = np.empty(0)


class VarType(enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Sense(enum.Enum):
    """Optimization direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


def _check_bounds(lower: np.ndarray, upper: np.ndarray, what: str,
                  ids: np.ndarray | None = None) -> None:
    """Raise unless ``lower <= upper`` throughout.

    NaN compares false, so a NaN bound is rejected here rather than
    slipping past a ``lower > upper`` test and being dropped by the
    backends' finite-bound masks.
    """
    ordered = lower <= upper
    if not ordered.all():
        bad = int(np.argmin(ordered))
        raise ModelError(
            f"{what} {bad if ids is None else ids[bad]}: lower bound "
            f"{lower[bad]} > upper bound {upper[bad]} (or a bound is NaN)")


@dataclass(frozen=True)
class _RowBlock:
    """One batch of constraint rows in ``lower <= A x <= upper`` form.

    ``rows`` holds block-local row ids; duplicate ``(row, col)`` entries sum.
    """

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


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
        however their rows were split into blocks.
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

    Column blocks and row blocks are appended incrementally; :meth:`solve`
    compiles the model into sparse matrix form (cached between solves) and
    invokes HiGHS.
    """

    def __init__(self, name: str = "model", sense: Sense = Sense.MINIMIZE):
        self.name = name
        self.sense = sense
        # columns: one entry per variable, grown per add_var_array block
        self._lb = _NO_FLOATS
        self._ub = _NO_FLOATS
        self._integrality = _NO_INTS
        # rows: COO blocks in call order
        self._blocks: list[_RowBlock] = []
        self._num_rows = 0
        self._objective: tuple[np.ndarray, np.ndarray, float] = (
            _NO_INTS, _NO_FLOATS, 0.0)
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
        return self._num_rows

    @property
    def num_integer_vars(self) -> int:
        return int(np.count_nonzero(self._integrality))

    def add_var_array(self, shape: int | tuple[int, ...],
                      lb: float | np.ndarray = 0.0,
                      ub: float | np.ndarray = _INF,
                      vtype: VarType = VarType.CONTINUOUS,
                      name: str = "x") -> np.ndarray:
        """Create a block of variables; returns their indices as an ndarray.

        The returned index array is meant for :meth:`add_constr_coo` /
        :meth:`set_objective_array` index arithmetic. ``lb``/``ub``
        broadcast against ``shape`` (binaries are clamped to [0, 1]).
        ``name`` labels the block in error messages only.
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
        _check_bounds(lb_arr, ub_arr, f"variable block {name!r}, entry")
        self._lb = np.concatenate([self._lb, lb_arr])
        self._ub = np.concatenate([self._ub, ub_arr])
        self._integrality = np.concatenate([
            self._integrality,
            np.full(count, vtype is not VarType.CONTINUOUS, dtype=np.int64)])
        self._matrix_cache = None  # matrix width changed
        indices = np.arange(start, start + count, dtype=np.int64)
        return indices.reshape(shape) if isinstance(shape, tuple) else indices

    def add_constr_coo(self, rows: Sequence | np.ndarray,
                       cols: Sequence | np.ndarray,
                       data: Sequence | np.ndarray,
                       lb: float | Sequence | np.ndarray,
                       ub: float | Sequence | np.ndarray,
                       num_rows: int | None = None) -> int:
        """Append a block of rows as COO triplets: ``lb <= A x <= ub``.

        ``rows`` are block-local (0-based); the block is placed after every
        previously added row. Duplicate ``(row, col)`` entries **sum**. A
        row with no entries is a valid all-zero row. Equality rows use
        ``lb == ub``; one-sided rows use ``±inf``.

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
        _check_bounds(lower, upper, "COO row")
        if not np.isfinite(data).all():
            raise ModelError("COO coefficients must be finite")
        if len(rows) and (rows.min() < 0 or rows.max() >= num_rows):
            raise ModelError("COO row index out of block range")
        if len(cols) and (cols.min() < 0 or cols.max() >= len(self._lb)):
            raise ModelError(
                "COO column index out of range (variable of another model?)")
        first_row = self._num_rows
        self._blocks.append(_RowBlock(
            rows=rows, cols=cols, data=data,
            lower=np.ascontiguousarray(lower, dtype=float),
            upper=np.ascontiguousarray(upper, dtype=float)))
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
        lower = self._lb[indices] if lb is None else np.broadcast_to(
            np.asarray(lb, dtype=float), indices.shape)
        upper = self._ub[indices] if ub is None else np.broadcast_to(
            np.asarray(ub, dtype=float), indices.shape)
        # validate the would-be bounds before writing any: a raise leaves
        # the model as it was
        _check_bounds(lower, upper, "variable", indices)
        if lb is not None:
            self._lb[indices] = lower
        if ub is not None:
            self._ub[indices] = upper

    def set_objective_array(self, indices: Sequence | np.ndarray,
                            coefs: Sequence | np.ndarray,
                            const: float = 0.0,
                            sense: Sense | None = None) -> None:
        """Set the objective from parallel index/coefficient arrays.

        Duplicate indices sum. Replaces any previously set objective.
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
        if not (np.isfinite(coefs).all() and np.isfinite(const)):
            raise ModelError("objective coefficients must be finite")
        self._objective = (indices, coefs, float(const))
        if sense is not None:
            self.sense = sense

    # ------------------------------------------------------------------
    # compilation + solve
    # ------------------------------------------------------------------
    def _stacked_matrix(self) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """Stack all row blocks into one ``lb <= A x <= ub`` system (cached)."""
        key = (self._num_rows, len(self._blocks), len(self._lb))
        if self._matrix_cache is not None and self._matrix_cache[0] == key:
            return self._matrix_cache[1], self._matrix_cache[2], \
                self._matrix_cache[3]
        # an empty head keeps np.concatenate defined for a row-less model
        ints, floats = [_NO_INTS], [_NO_FLOATS]
        row_parts = list(ints)
        offset = 0
        for block in self._blocks:
            row_parts.append(block.rows + offset)
            offset += len(block.lower)
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

    def _objective_vector(self) -> np.ndarray:
        """The dense objective as written (sense not applied)."""
        indices, coefs, _ = self._objective
        c = np.zeros(len(self._lb))
        np.add.at(c, indices, coefs)
        return c

    def compile(self) -> CompiledModel:
        """Compile to the canonical matrix form (sense not applied to ``c``).

        The constraint stack is cached across calls; only newly added rows
        trigger a re-stack. This is also the comparison point for the
        golden-pin tests: two models describing the same mathematics
        compile to :meth:`CompiledModel.canonical`-equal tuples. The bound
        arrays are snapshots — a later :meth:`set_var_bounds` does not
        reach into a model compiled earlier.
        """
        with _obs_span("solver.compile", vars=self.num_vars,
                       rows=self.num_constraints):
            matrix, lower, upper = self._stacked_matrix()
            return CompiledModel(
                A=matrix, row_lower=lower, row_upper=upper,
                c=self._objective_vector(), obj_const=self._objective[2],
                col_lower=self._lb.copy(), col_upper=self._ub.copy(),
                integrality=self._integrality, sense=self.sense)

    def solve(self, options: SolverOptions = DEFAULT_OPTIONS) -> SolveResult:
        """Compile and solve; never raises on infeasibility (check status)."""
        if not len(self._lb):
            raise ModelError("model has no variables")
        start = time.perf_counter()
        if self._integrality.any():
            result = self._solve_milp(options)
        else:
            result = self._solve_lp(options)
        result.solve_time = time.perf_counter() - start
        result.stats.setdefault("num_vars", self.num_vars)
        result.stats.setdefault("num_constraints", self.num_constraints)
        result.stats.setdefault("num_integer_vars", self.num_integer_vars)
        return result

    def _solve_milp(self, options: SolverOptions) -> SolveResult:
        compiled = self.compile()
        c = -compiled.c if self.sense is Sense.MAXIMIZE else compiled.c
        constraints = None
        if self._num_rows:
            constraints = LinearConstraint(compiled.A, compiled.row_lower,
                                           compiled.row_upper)
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
            if self.sense is Sense.MAXIMIZE:
                c = -c
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
                          bounds=np.column_stack([self._lb, self._ub]),
                          method=method, options=lp_options)
            sp.set_attr(status=int(res.status))
        return self._wrap(res, options, is_mip=False)

    def _wrap(self, res, options: SolverOptions, is_mip: bool) -> SolveResult:
        values = np.asarray(res.x) if res.x is not None else None
        objective = None
        if values is not None:
            indices, coefs, const = self._objective
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
           "SolverOptions", "SolveResult", "SolveStatus"]
