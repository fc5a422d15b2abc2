"""LP/MILP modeling layer (the repo's stand-in for gurobipy).

Public surface::

    Model, Session, CompiledModel, compiled_equal, Sense, VarType
    SolverOptions, DEFAULT_OPTIONS, EARLY_STOP_30
    SolveResult, SolveStatus
"""

from repro.solver.model import (CompiledModel, Model, Sense, Session,
                                VarType, compiled_equal)
from repro.solver.options import DEFAULT_OPTIONS, EARLY_STOP_30, SolverOptions
from repro.solver.result import SolveResult, SolveStatus

__all__ = [
    "Model", "Session", "CompiledModel", "compiled_equal", "Sense", "VarType",
    "SolverOptions", "DEFAULT_OPTIONS", "EARLY_STOP_30",
    "SolveResult", "SolveStatus",
]
