"""LP/MILP modeling layer (the repo's stand-in for gurobipy).

Public surface::

    Model, LpSession, CompiledModel, compiled_equal, Sense, VarType
    SolverOptions, DEFAULT_OPTIONS, EARLY_STOP_30
    SolveResult, SolveStatus
    write_lp, save_lp, lp_statistics
"""

from repro.solver.io import lp_statistics, save_lp, write_lp
from repro.solver.model import (CompiledModel, LpSession, Model, Sense,
                                VarType, compiled_equal)
from repro.solver.options import DEFAULT_OPTIONS, EARLY_STOP_30, SolverOptions
from repro.solver.result import SolveResult, SolveStatus

__all__ = [
    "Model", "LpSession", "CompiledModel", "compiled_equal", "Sense", "VarType",
    "SolverOptions", "DEFAULT_OPTIONS", "EARLY_STOP_30",
    "SolveResult", "SolveStatus",
    "write_lp", "save_lp", "lp_statistics",
]
