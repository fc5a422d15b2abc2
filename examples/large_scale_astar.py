#!/usr/bin/env python3
"""Scaling to multi-chassis clouds: LP for ALLTOALL, A* for ALLGATHER (§4).

Sweeps the Internal-2 stand-in from 2 to 8 chassis and reports, per size,
the LP's ALLTOALL solve (optimal, scalable) and the A* decomposition's
ALLGATHER solve (near-optimal, scalable) — the paper's Table 4 recipe in
laptop-sized form.

Run:  python examples/large_scale_astar.py
"""

import time

from repro import collectives, topology
from repro.analysis import Table
from repro.core import TecclConfig
from repro.core.astar import solve_astar
from repro.core.config import AStarConfig
from repro.core.lp import solve_lp
from repro.simulate import check_schedule
from repro.solver import SolverOptions

table = Table("Scaling on Internal-2 (paper: Table 4, downsized)",
              columns=["GPUs", "AtoA LP s", "AtoA us", "AG A* s", "AG us",
                       "rounds"])

for chassis in (2, 4, 8):
    topo = topology.internal2(chassis)
    gpus = topo.num_gpus
    config = TecclConfig(chunk_bytes=1e6,
                         solver=SolverOptions(mip_gap=0.2, time_limit=120))

    start = time.perf_counter()
    lp = solve_lp(topo, collectives.alltoall(topo.gpus, 1), config)
    lp_time = time.perf_counter() - start

    ag_demand = collectives.allgather(topo.gpus, 1)
    start = time.perf_counter()
    astar = solve_astar(topo, ag_demand, config, AStarConfig())
    astar_time = time.perf_counter() - start
    check_schedule(astar.schedule, topo, ag_demand,
                   astar.plan).raise_on_violation()

    table.add(f"Internal2 x{chassis}",
              **{"GPUs": gpus,
                 "AtoA LP s": lp_time,
                 "AtoA us": lp.finish_time * 1e6,
                 "AG A* s": astar_time,
                 "AG us": astar.finish_time * 1e6,
                 "rounds": astar.num_rounds})

table.show()
print("A* schedules replayed conformant at every size.")
