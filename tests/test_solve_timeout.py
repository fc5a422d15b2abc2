"""A solve stopped at its limit without a point is a timeout.

HiGHS stopped by ``time_limit`` before it holds a point says the solve
was slow, not that the instance is infeasible: the result keeps
``SolveStatus.TIME_LIMIT`` and ``require_solution`` raises
``SolveTimeoutError``, which is not an ``InfeasibleError``, so callers
that record infeasible instances (sweeps, the design search, failure
impact, the SCCL-like step search) let it through instead.
"""

from dataclasses import replace

import pytest

from repro import collectives, topology
from repro.analysis.sweeps import horizon_sweep
from repro.core import TecclConfig, synthesize
from repro.core.lp import solve_lp
from repro.errors import InfeasibleError, SolveTimeoutError
from repro.solver import SolverOptions
from repro.topology import with_capacity_overrides

UNIT = TecclConfig(chunk_bytes=1.0)
STOPPED = replace(UNIT, solver=SolverOptions(time_limit=1e-9))


def ring12_degraded():
    """The ledger's ``ring12-degraded-a2a``: ring12 ALLTOALL with its
    first link at half capacity."""
    ring = topology.ring(12, capacity=1.0)
    topo = with_capacity_overrides(ring, {min(ring.links): 0.5},
                                   name="ring12-degraded")
    return topo, collectives.alltoall(topo.gpus, 1)


class TestLpTimeout:
    def test_solve_lp_raises_a_timeout_not_an_infeasible(self):
        topo, demand = ring12_degraded()
        with pytest.raises(SolveTimeoutError,
                           match="Time limit reached") as caught:
            solve_lp(topo, demand, STOPPED)
        assert not isinstance(caught.value, InfeasibleError)

    def test_synthesize_raises_a_timeout(self):
        topo, demand = ring12_degraded()
        with pytest.raises(SolveTimeoutError):
            synthesize(topo, demand, STOPPED)

    def test_a_milp_without_an_incumbent_raises_a_timeout(self):
        dgx1 = topology.dgx1()
        config = TecclConfig(chunk_bytes=25e3,
                             solver=SolverOptions(time_limit=1e-9))
        with pytest.raises(SolveTimeoutError):
            synthesize(dgx1, collectives.allgather(dgx1.gpus, 1), config)

    def test_without_the_limit_the_instance_solves(self):
        topo, demand = ring12_degraded()
        assert solve_lp(topo, demand, UNIT).finish_time > 0


class TestCallers:
    def test_a_sweep_does_not_record_a_timeout_as_infeasible(self):
        topo, demand = ring12_degraded()
        with pytest.raises(SolveTimeoutError):
            horizon_sweep(topo, demand, STOPPED, [36])

    def test_a_sweep_still_records_a_short_horizon_as_infeasible(self):
        topo, demand = ring12_degraded()
        [point] = horizon_sweep(topo, demand, UNIT, [2]).points
        assert point.infeasible
