"""TE-CCL core: the paper's formulations and the synthesis facade."""

from repro.core.astar import AStarOutcome, solve_astar
from repro.core.config import AStarConfig, EpochMode, SwitchModel, TecclConfig
from repro.core.decompose import PathStrip, decompose
from repro.core.epochs import (EpochPlan, build_epoch_plan, epoch_duration,
                               path_based_epoch_bound, plan_with_tau)
from repro.core.hierarchical import (ChassisPlan, HierarchicalOutcome,
                                     PhaseResult, chassis_groups,
                                     hierarchical_allgather)
from repro.core.lp import (IncrementalLp, LpOutcome, minimize_epochs_lp,
                           solve_lp)
from repro.core.milp import MilpOutcome, solve_milp
from repro.core.pop import (Partition, PopOutcome, merge_flow_schedules,
                            partition_demand, pop_auto_horizon,
                            solve_lp_pop)
from repro.core.subsolve import SubSolveCache, default_jobs, run_subsolves
from repro.core.schedule import FlowSchedule, Schedule, Send
from repro.core.solve import (Method, SynthesisResult, synthesize,
                              synthesize_multi_tenant)

__all__ = [
    "TecclConfig", "AStarConfig", "EpochMode", "SwitchModel",
    "EpochPlan", "build_epoch_plan", "plan_with_tau", "epoch_duration",
    "path_based_epoch_bound",
    "solve_milp", "MilpOutcome",
    "solve_lp", "minimize_epochs_lp", "LpOutcome", "IncrementalLp",
    "solve_astar", "AStarOutcome",
    "synthesize", "synthesize_multi_tenant", "Method", "SynthesisResult",
    "Schedule", "FlowSchedule", "Send",
    "solve_lp_pop", "partition_demand", "merge_flow_schedules",
    "Partition", "PopOutcome", "pop_auto_horizon",
    "run_subsolves", "SubSolveCache", "default_jobs",
    "decompose", "PathStrip",
    "hierarchical_allgather", "chassis_groups", "ChassisPlan",
    "HierarchicalOutcome", "PhaseResult",
]
