"""Planner service: cold solve vs cache hit vs coalesced-request latency.

The service's claim (ISSUE 1, mirroring the paper's amortisation story) is
quantitative: a cache hit must be at least an order of magnitude cheaper
than the cold solve it replaces, and N concurrent identical requests must
cost one solve, not N. This bench measures all three serving paths on one
DGX-1 ALLGATHER instance and emits both the human table and a machine-read
JSON artifact (``benchmarks/results/service_cache.json``).
"""

import threading
import time

from _common import single_solve_benchmark, write_result
from repro import collectives, topology
from repro.analysis import Table
from repro.core import TecclConfig
from repro.service import Planner, PlanRequest
from repro.solver import SolverOptions

#: concurrent identical requests in the coalescing wave
WAVE = 6


def _request(tag: str = "", unit: float = 1.0) -> PlanRequest:
    topo = topology.dgx1()
    if unit != 1.0:  # the same fabric in another capacity unit
        topo = topology.scale_capacity(topo, 1 / unit)
        for key, link in topo.links.items():
            topo.links[key] = link.with_alpha(link.alpha * unit)
    return PlanRequest(
        topology=topo,
        demand=collectives.allgather(topo.gpus, 2),
        config=TecclConfig(chunk_bytes=25e3, num_epochs=14,
                           solver=SolverOptions(time_limit=60.0)),
        tag=tag)


def _timed_plan(planner: Planner, tag: str):
    start = time.perf_counter()
    response = planner.plan(_request(tag))
    return response, time.perf_counter() - start


def test_service_cache_latency(benchmark, tmp_path):
    # --- cold solve, then memory hit, then disk hit (fresh planner) -------
    cache_dir = tmp_path / "schedule-cache"
    with Planner(executor="thread", max_workers=WAVE,
                 cache_dir=cache_dir) as planner:
        cold, cold_s = _timed_plan(planner, "cold")
        hit, hit_s = _timed_plan(planner, "hit")
        assert not cold.cache_hit and hit.cache_hit
        assert planner.stats()["solves"] == 1
        # a scale_capacity twin (α scaled with it): the first entry serves it
        twin = planner.plan(_request("twin", unit=2.0))
        assert twin.cache_hit and twin.fingerprint == cold.fingerprint
        assert twin.result.plan.tau == 2 * cold.result.plan.tau
        assert planner.stats()["solves"] == 1
    with Planner(executor="thread", cache_dir=cache_dir) as planner:
        disk, disk_s = _timed_plan(planner, "disk")
        assert disk.cache_hit
        assert planner.stats()["solves"] == 0

    # --- coalescing wave: N concurrent identical requests, no cache ------
    with Planner(executor="thread", max_workers=WAVE) as planner:
        barrier = threading.Barrier(WAVE)
        latencies = [0.0] * WAVE

        def serve(i: int) -> None:
            barrier.wait()
            start = time.perf_counter()
            planner.plan(_request(f"wave-{i}"))
            latencies[i] = time.perf_counter() - start

        wave_start = time.perf_counter()
        threads = [threading.Thread(target=serve, args=(i,))
                   for i in range(WAVE)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wave_s = time.perf_counter() - wave_start
        wave_stats = planner.stats()
    assert wave_stats["solves"] == 1
    assert wave_stats["coalesced"] == WAVE - 1

    # --- report ----------------------------------------------------------
    speedup_mem = cold_s / hit_s
    speedup_disk = cold_s / disk_s
    table = Table("Planner service — serving-path latency (DGX-1 AG, "
                  "2 chunks)",
                  columns=["latency ms", "vs cold"])
    table.add("cold solve", **{"latency ms": cold_s * 1e3, "vs cold": 1.0})
    table.add("memory hit", **{"latency ms": hit_s * 1e3,
                               "vs cold": speedup_mem})
    table.add("disk hit", **{"latency ms": disk_s * 1e3,
                             "vs cold": speedup_disk})
    table.add(f"coalesced wave of {WAVE}",
              **{"latency ms": wave_s * 1e3, "vs cold": cold_s / wave_s})
    payload = {
        "bench": "service_cache",
        "instance": "dgx1/allgather/2x25e3",
        "cold_s": cold_s,
        "memory_hit_s": hit_s,
        "disk_hit_s": disk_s,
        "wave_requests": WAVE,
        "wave_s": wave_s,
        "wave_solves": wave_stats["solves"],
        "wave_coalesced": wave_stats["coalesced"],
        "memory_hit_speedup": speedup_mem,
        "disk_hit_speedup": speedup_disk,
    }
    write_result(
        "service_cache", table.render(),
        data=payload,
        phases={"cold_solve": cold_s, "memory_hit": hit_s,
                "disk_hit": disk_s, "coalesced_wave": wave_s})

    # the acceptance bar: a hit is >= 10x cheaper than the solve it replaces
    assert speedup_mem >= 10.0
    assert speedup_disk >= 10.0
    # a coalesced wave costs about one solve, not WAVE solves
    assert wave_s < cold_s * 3.0

    single_solve_benchmark(
        benchmark, lambda: Planner(executor="inline").plan(_request()))
