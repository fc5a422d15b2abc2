"""Solve results and status mapping."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError


class SolveStatus(enum.Enum):
    """Outcome of a solve, normalised from HiGHS's model status."""

    OPTIMAL = "optimal"
    #: Feasible incumbent accepted under a relative-gap early stop.
    GAP_LIMIT = "gap_limit"
    #: Stopped at the time, iteration or node limit: a MILP returns its
    #: incumbent when it has one, an LP never has a point to return.
    TIME_LIMIT = "time_limit"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """Whether a solve ending here may return a point; at a limit only
        an incumbent is one, so read ``SolveResult.values``."""
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
        mip_gap: relative primal-dual gap HiGHS reports for a MILP that
            returns a point (``None`` for LPs and point-less results).
        message: backend message, useful for diagnostics.
    """

    status: SolveStatus
    objective: float | None
    values: np.ndarray | None
    solve_time: float
    mip_gap: float | None = None
    message: str = ""
    stats: dict = field(default_factory=dict)

    def value(self, index: int | np.integer) -> float:
        """The returned primal value of the column ``index`` (what
        :meth:`repro.solver.model.Model.add_var_array` hands out)."""
        if self.values is None:
            raise ModelError(f"no solution available (status={self.status.value})")
        return float(self.values[index])

    def require_solution(self) -> "SolveResult":
        """Return self, raising if the solve produced no usable point:
        :class:`~repro.errors.SolveTimeoutError` when it stopped at a limit
        without one, :class:`~repro.errors.InfeasibleError` otherwise."""
        from repro.errors import InfeasibleError, SolveTimeoutError

        if self.values is None and self.status is SolveStatus.TIME_LIMIT:
            raise SolveTimeoutError(
                f"solver stopped at its limit without a solution: "
                f"{self.message}")
        if not self.status.has_solution or self.values is None:
            raise InfeasibleError(
                f"solver returned {self.status.value}: {self.message}",
                status=self.status.value)
        return self
