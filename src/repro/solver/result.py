"""Solve results and status mapping."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.solver.expr import LinExpr, Variable


class SolveStatus(enum.Enum):
    """Outcome of a solve, normalised across LP/MILP backends."""

    OPTIMAL = "optimal"
    #: Feasible incumbent accepted under a relative-gap early stop.
    GAP_LIMIT = "gap_limit"
    #: Feasible incumbent returned at the time/node limit.
    TIME_LIMIT = "time_limit"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.GAP_LIMIT,
                        SolveStatus.TIME_LIMIT)


@dataclass
class SolveResult:
    """The outcome of :meth:`repro.solver.model.Model.solve`.

    Attributes:
        status: normalised solver status.
        objective: objective value of the returned point (``None`` if no
            feasible point was found).
        values: primal values indexed by variable index.
        solve_time: wall-clock seconds spent inside the backend.
        mip_gap: relative primal-dual gap reported by the backend
            (0.0 for LPs and proven-optimal MILPs, ``None`` if unknown).
        message: backend message, useful for diagnostics.
    """

    status: SolveStatus
    objective: float | None
    values: np.ndarray | None
    solve_time: float
    mip_gap: float | None = None
    message: str = ""
    stats: dict = field(default_factory=dict)
    #: row duals / simplex basis, when the backend reports them (the scipy
    #: HiGHS wrappers do not; see :class:`WarmStart`).
    duals: np.ndarray | None = None
    col_basis: np.ndarray | None = None
    row_basis: np.ndarray | None = None

    def value(self, item: Variable | LinExpr | int | np.integer) -> float:
        """Evaluate a variable, raw column index, or expression at the
        returned primal point.

        Raw indices are what the bulk API
        (:meth:`repro.solver.model.Model.add_var_array`) and the LP/MILP
        builders hand around instead of :class:`Variable` objects.
        """
        if self.values is None:
            raise ModelError(f"no solution available (status={self.status.value})")
        if isinstance(item, Variable):
            return float(self.values[item.index])
        if isinstance(item, (int, np.integer)):
            return float(self.values[item])
        if isinstance(item, LinExpr):
            total = item.const
            for idx, coef in item.terms.items():
                total += coef * float(self.values[idx])
            return total
        raise ModelError(f"cannot evaluate {type(item).__name__}")

    def require_solution(self) -> "SolveResult":
        """Return self, raising if the solve produced no usable point."""
        from repro.errors import InfeasibleError

        if not self.status.has_solution or self.values is None:
            raise InfeasibleError(
                f"solver returned {self.status.value}: {self.message}",
                status=self.status.value)
        return self

    def warm_start(self) -> "WarmStart | None":
        """Snapshot this solve as a :class:`WarmStart` donor.

        Returns ``None`` when the solve produced no primal point (an
        infeasible or errored result cannot seed anything).
        """
        if self.values is None:
            return None
        return WarmStart(values=np.array(self.values, dtype=float, copy=True),
                         objective=self.objective,
                         duals=self.duals, col_basis=self.col_basis,
                         row_basis=self.row_basis)


@dataclass
class WarmStart:
    """A reusable snapshot of one solve: primal point plus, when the backend
    reports them, duals and a simplex basis.

    The scipy/HiGHS backend currently surfaces only the primal point (its
    ``linprog`` HiGHS methods accept no ``x0`` and ``milp`` no incumbent), so
    ``duals``/``col_basis``/``row_basis`` stay ``None`` there; the fields
    exist so a capable backend can round-trip a full basis through the same
    API. Even without backend support the snapshot carries real value: the
    incremental re-solve engine uses it as a feasibility certificate, an
    objective bound for horizon searches, and the donor payload of the
    planner's near-fingerprint cache.
    """

    values: np.ndarray
    objective: float | None = None
    duals: np.ndarray | None = None
    col_basis: np.ndarray | None = None
    row_basis: np.ndarray | None = None

    @staticmethod
    def from_result(result: SolveResult | None) -> "WarmStart | None":
        """Capture a donor from a result (``None``-tolerant convenience)."""
        if result is None:
            return None
        return result.warm_start()

    @property
    def num_vars(self) -> int:
        return len(self.values)

    def padded(self, num_vars: int) -> np.ndarray:
        """The primal point resized to ``num_vars`` columns.

        A model grown by :meth:`repro.solver.model.Model.extend` appends
        columns after the donor's, so zero-padding is exactly "the prior
        solution with the new epochs idle". Truncation (a *smaller* target)
        is rejected — there is no sound projection in general.
        """
        if num_vars < len(self.values):
            raise ModelError(
                f"cannot shrink a warm start from {len(self.values)} to "
                f"{num_vars} variables")
        if num_vars == len(self.values):
            return np.asarray(self.values, dtype=float)
        out = np.zeros(num_vars)
        out[:len(self.values)] = self.values
        return out
