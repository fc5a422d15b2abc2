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
:meth:`Model.set_var_bounds` mutates bounds without touching that cache.
Every model, LP or MILP, is solved on a :class:`Session`: a live HiGHS
instance (SciPy's bundled binding) that a bound-restricted re-solve (the
horizon search's probes) edits instead of reloading the matrix.

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
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as _highs

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

    ``c``/``obj_const`` describe the objective as written; ``sense`` is
    applied by the solver, never folded into ``c``.
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
        """Solve on a one-shot :meth:`session`; never raises on
        infeasibility (check status)."""
        start = time.perf_counter()
        with self.session(options) as session:
            result = session.solve()
        result.solve_time = time.perf_counter() - start
        return result

    def session(self, options: SolverOptions = DEFAULT_OPTIONS) -> "Session":
        """Open a live HiGHS session on this model (a context manager)."""
        return Session(self, options)

    def summary(self) -> str:
        """One-line description of the model size (useful in logs)."""
        return (f"{self.name}: {self.num_vars} vars "
                f"({self.num_integer_vars} integer), "
                f"{self.num_constraints} constraints, {self.sense.value}")


class Session:
    """A live HiGHS instance holding one model and, once run, its state.

    A context manager (:meth:`Model.session`); closing it frees the HiGHS
    memory. It references its model, never the reverse. HiGHS holds the
    model as stated: row *i* is model row *i*, ``row_lower <= A x <=
    row_upper``, under the objective's own sense, costs and constant. The
    first :meth:`solve` runs an LP's ``lp_method`` solver, or the MIP. A
    later one pushes the bounds changed since and re-runs: an LP by dual
    simplex, presolve off, from the held basis — or IPM afresh when
    ``lp_method`` resolved to IPM (on internal1x4 ALLTOALL, 74.6 k columns,
    warm dual simplex took 107 s, IPM 12 s); a MILP re-runs the MIP. Matrix
    and objective stay as they were at opening.
    """

    def __init__(self, model: Model, options: SolverOptions):
        if not model.num_vars:
            raise ModelError("model has no variables")
        self._model, self._options, self._runs = model, options, 0
        self._shape = (model.num_vars, model.num_constraints)
        self._lb, self._ub = model._lb.copy(), model._ub.copy()
        self._mip = bool(model.num_integer_vars)
        # a MILP leaves ``solver`` to HiGHS: "auto" would otherwise force
        # IPM onto a large MIP's relaxations
        self._method = None if self._mip \
            else options.resolve_lp_method(model.num_vars)
        with _obs_span("solver.prepare", vars=model.num_vars,
                       rows=model.num_constraints):
            matrix, lower, upper = model._stacked_matrix()
            a = matrix.tocsc()
            sense = _highs.ObjSense.kMaximize \
                if model.sense is Sense.MAXIMIZE else _highs.ObjSense.kMinimize
            # the column-wise arrays as they are, integrality included:
            # passModel's pointer overload reads them in place, where
            # HighsLp fields copy element by element
            model_args = (
                a.shape[1], a.shape[0], a.nnz,
                int(_highs.MatrixFormat.kColwise), int(sense),
                float(model._objective[2]), model._objective_vector(),
                self._lb, self._ub, lower, upper,
                a.indptr.astype(np.int32, copy=False),
                a.indices.astype(np.int32, copy=False), a.data,
                # full length even for an LP: HiGHS reads num_col entries
                model._integrality.astype(np.int32))
            self._highs = _highs._Highs()
            for name, value in (
                    ("presolve", "on" if options.presolve else "off"),
                    ("solver", _LP_SOLVER.get(self._method)),
                    ("time_limit", options.time_limit
                     and float(options.time_limit)),
                    ("mip_rel_gap", options.mip_gap or None),
                    ("mip_max_nodes", options.node_limit),
                    ("output_flag", options.verbose),
                    ("log_to_console", options.verbose)):
                if value is not None:
                    self._highs.setOptionValue(name, value)
            if self._highs.passModel(*model_args) \
                    == _highs.HighsStatus.kError:
                raise ModelError(
                    f"HiGHS refused {model.summary()}: "
                    f"{_refusal(model_args)}")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._highs = None

    def _push_bounds(self) -> None:
        """Hand HiGHS the column bounds the model changed since."""
        model = self._model
        if self._highs is None:
            raise ModelError("the session is closed")
        if (model.num_vars, model.num_constraints) != self._shape:
            raise ModelError("the model changed shape since the session opened")
        changed = np.flatnonzero((model._lb != self._lb)
                                 | (model._ub != self._ub))
        if len(changed):
            self._lb[changed] = model._lb[changed]
            self._ub[changed] = model._ub[changed]
            self._highs.changeColsBounds(
                len(changed), changed.astype(np.int32),
                self._lb[changed], self._ub[changed])

    def write(self, path: str | Path) -> None:
        """Export the model as HiGHS holds it, bound edits included:
        MPS for a ``.mps`` path, CPLEX LP for ``.lp`` (whose format states
        a two-sided row as two rows)."""
        path = Path(path)
        if path.suffix not in (".lp", ".mps"):
            raise ModelError(f"cannot write {path}: not a .lp or .mps path")
        self._push_bounds()
        path.touch()  # HiGHS crashes on a path it cannot open; this raises
        if self._highs.writeModel(str(path)) == _highs.HighsStatus.kError:
            raise ModelError(f"HiGHS could not write {path}")

    def solve(self) -> SolveResult:
        """Run (or re-run) and read the result back."""
        start = time.perf_counter()
        self._push_bounds()
        model, highs = self._model, self._highs
        if self._runs and self._options.time_limit is not None:
            # HiGHS's clock runs across runs: every solve gets its own limit
            highs.setOptionValue("time_limit", float(
                self._options.time_limit) + highs.getRunTime())
        # IPM ignores a basis: it presolves and runs afresh; so does a MIP
        warm = bool(self._runs) and self._method in ("highs", "highs-ds")
        if warm:
            highs.setOptionValue("presolve", "off")
            highs.setOptionValue("solver", "simplex")
        backend = "highs-milp" if self._mip else "highs-lp:warm-ds" if warm \
            else f"highs-lp:{self._method}"
        with _obs_span("solver.backend", backend=backend, vars=model.num_vars,
                       rows=model.num_constraints) as sp:
            highs.run()
            code = highs.getModelStatus()
            sp.set_attr(status=int(code))
        self._runs += 1
        info = highs.getInfo()
        status = _map_status(code)
        # at a limit only a MILP's incumbent is a point to return; a
        # stopped simplex is not a feasibility witness
        point = status is SolveStatus.OPTIMAL or (
            status is SolveStatus.TIME_LIMIT and self._mip
            and info.objective_function_value != _highs.kHighsInf)
        gap = float(info.mip_gap) if self._mip and point else None
        # HiGHS reports optimal when it stops at the requested mip_rel_gap
        # too; tell a proof from an early stop (the paper reports those apart)
        if status is SolveStatus.OPTIMAL and gap is not None \
                and self._options.mip_gap > 0 and gap > 1e-9:
            status = SolveStatus.GAP_LIMIT
        values = np.array(highs.getSolution().col_value) if point else None
        indices, coefs, const = model._objective
        return SolveResult(
            status=status, values=values, objective=None if values is None
            else const + float(coefs @ values[indices]),
            solve_time=time.perf_counter() - start, mip_gap=gap,
            message=highs.modelStatusToString(code), stats={
                "backend_status": int(code),
                "num_vars": model.num_vars,
                "num_constraints": model.num_constraints,
                "num_integer_vars": model.num_integer_vars})


#: ``lp_method`` → the HiGHS ``solver`` option (absent: HiGHS chooses)
_LP_SOLVER = {"highs-ds": "simplex", "highs-ipm": "ipm"}

#: HiGHS model status → :class:`SolveStatus` (every status not listed is
#: ``ERROR``); a solve stopped at a time, iteration or node limit is
#: ``TIME_LIMIT`` whether or not it holds a point
_HMS = _highs.HighsModelStatus
_STATUS = {
    _HMS.kOptimal: SolveStatus.OPTIMAL,
    _HMS.kInfeasible: SolveStatus.INFEASIBLE,
    _HMS.kModelError: SolveStatus.INFEASIBLE,
    _HMS.kUnbounded: SolveStatus.UNBOUNDED,
    **dict.fromkeys((_HMS.kTimeLimit, _HMS.kIterationLimit,
                     _HMS.kSolutionLimit), SolveStatus.TIME_LIMIT)}


def _map_status(code) -> SolveStatus:
    """One HiGHS model status as a :class:`SolveStatus`."""
    return _STATUS.get(code, SolveStatus.ERROR)


def _refusal(model_args: tuple) -> str:
    """Why HiGHS refuses the model ``passModel(*model_args)`` passes: the
    ERROR lines it logs when passed again to a throwaway instance that
    logs to a callback."""
    lines: list[str] = []
    highs = _highs._Highs()
    highs.setCallback(lambda _kind, message, *_: lines.append(message), None)
    highs.startCallback(_highs.cb.kCallbackLogging)
    highs.passModel(*model_args)
    return "; ".join(line.removeprefix("ERROR:").strip() for line in lines
                     if line.startswith("ERROR")) or "no reason logged"


__all__ = ["Model", "Session", "CompiledModel", "compiled_equal", "Sense",
           "VarType", "SolverOptions", "SolveResult", "SolveStatus"]
