"""The planner service: fingerprint → cache → coalesce → solve pool.

Turns the one-shot :func:`repro.core.solve.synthesize` facade into a serving
layer (the paper's amortisation story made operational): equivalent requests
are recognised by canonical SHA-256 fingerprints, solved schedules are kept
in a two-tier cache, concurrent identical requests share one in-flight
solve, and distinct instances solve in parallel across a process pool.

Quickstart::

    from repro import collectives, topology
    from repro.core import TecclConfig
    from repro.service import Planner, PlanRequest

    topo = topology.dgx1()
    request = PlanRequest(topology=topo,
                          demand=collectives.allgather(topo.gpus, 1),
                          config=TecclConfig(chunk_bytes=25e3, num_epochs=10))
    with Planner(executor="thread", cache_dir="~/.cache/teccl") as planner:
        first = planner.plan(request)    # cold: solves, archives
        again = planner.plan(request)    # hit: served from cache
        assert again.cache_hit and planner.stats()["hits"] == 1
"""

from repro.service.cache import (CACHE_FORMAT_VERSION, CacheEntryInfo,
                                 CacheStats, ScheduleCache)
from repro.service.fingerprint import (FINGERPRINT_VERSION,
                                       canonical_near_request,
                                       canonical_request,
                                       fingerprint_request,
                                       near_fingerprint_request)
from repro.service.planner import Planner, PlannerStats
from repro.service.pool import PoolStats, SolvePool, solve_request
from repro.service.schema import PlanRequest, PlanResponse

__all__ = [
    "Planner", "PlannerStats", "PlanRequest", "PlanResponse",
    "ScheduleCache", "CacheStats", "CacheEntryInfo", "CACHE_FORMAT_VERSION",
    "SolvePool", "PoolStats", "solve_request",
    "canonical_request", "fingerprint_request", "FINGERPRINT_VERSION",
    "canonical_near_request", "near_fingerprint_request",
]
