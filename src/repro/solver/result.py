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
