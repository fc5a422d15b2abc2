"""TE-CCL reproduction: collective communication as multi-commodity flow.

Quickstart::

    from repro import topology, collectives
    from repro.core import TecclConfig, solve_milp

    topo = topology.dgx1()
    demand = collectives.allgather(topo.gpus, chunks_per_gpu=1)
    outcome = solve_milp(topo, demand, TecclConfig(chunk_bytes=25e3))
    print(outcome.schedule, outcome.finish_time)
"""

__version__ = "1.1.0"

from repro import (analysis, baselines, collectives, core, failures, msccl,
                   obs, service, simulate, solver, toposearch, topology)
from repro.errors import (DemandError, ExportError, InfeasibleError,
                          ModelError, ObservabilityError, ReproError,
                          ScheduleError, ServiceError, SolveTimeoutError,
                          TopologyError)

__all__ = [
    "collectives", "core", "obs", "service", "simulate", "solver",
    "topology", "analysis", "baselines", "failures", "msccl", "toposearch",
    "ReproError", "TopologyError", "DemandError", "ModelError",
    "InfeasibleError", "SolveTimeoutError", "ScheduleError", "ExportError",
    "ServiceError", "ObservabilityError", "__version__",
]
