"""Warm vs cold horizon search: what one built model, many horizons buys.

Cold (build + solve from scratch per attempt) against warm (one built
model with bound-restricted probes):

* **Horizon search** — the §6 ``minimize_epochs`` binary search at Table-4
  scale, run with a generous search bound (the paper's Algorithm-1-style
  bounds are deliberately loose). The cold bisection pays one expensive
  *feasible* solve per halving of the bound; the warm search anchors at
  the cheap path estimate on one shared model and its cost is independent
  of the bound: at most three solves under a 4x-loose bound. The measured
  ratio (1.3-1.45x over two runs on a 2-core host: warm 13.1-13.5 s = an
  11 s anchor + a 2.4 s infeasible probe, cold 18.1-19.0 s) is published,
  not asserted. At 74.6 k columns the LP is solved by IPM, so the warm
  probe re-runs IPM on the anchor's loaded HiGHS session rather than dual
  simplex from its basis (which measured 107 s on a feasible probe here).

Publishes ``benchmarks/results/BENCH_warm_start.json`` with the build/solve
splits and asserts what repeats exactly: the warm==cold result agreement,
the warm search's solve count, and that warm is the faster of the two.
"""

import time

import pytest

from _common import write_result
from repro import collectives, topology
from repro.analysis import Table
from repro.core import TecclConfig
from repro.core.epochs import build_epoch_plan, path_based_epoch_bound
from repro.core.lp import _minimize_epochs_cold, minimize_epochs_lp
from repro.solver import SolverOptions


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def test_warm_start_speedup(benchmark):
    table = Table("Warm vs cold re-solving",
                  columns=["cold s", "warm s", "speedup", "K cold",
                           "K warm", "warm solves"])
    results: dict[str, dict] = {}

    # -- headline: multi-attempt horizon search at Table-4 scale ---------
    topo = topology.internal1(4)
    demand = collectives.alltoall(topo.gpus, 1)
    config = TecclConfig(chunk_bytes=1e6,
                         solver=SolverOptions(time_limit=120))
    probe = build_epoch_plan(topo, config, num_epochs=1)
    # a generous bound, as the paper's binary-search procedure uses: the
    # search must be correct for any bound, and its cost should not
    # depend on the bound's looseness (warm) the way bisection does (cold)
    bound = 4 * path_based_epoch_bound(topo, demand, probe)
    warm, warm_s = _timed(minimize_epochs_lp, topo, demand, config,
                          max_epochs=bound)
    cold, cold_s = _timed(_minimize_epochs_cold, topo, demand, config,
                          bound)
    assert warm.plan.num_epochs == cold.plan.num_epochs
    assert warm.result.objective == pytest.approx(cold.result.objective,
                                                  rel=1e-6)
    results["horizon_search"] = {
        "topology": topo.name, "gpus": len(topo.gpus),
        "search_bound": bound,
        "k_star": warm.plan.num_epochs,
        "cold_s": cold_s, "warm_s": warm_s,
        "speedup": cold_s / warm_s,
        "warm_solves": warm.result.stats.get("horizon_solves"),
        "warm_build_s": warm.result.stats.get("build_time"),
        "cold_final_build_s": cold.result.stats.get("build_time"),
    }
    table.add("horizon search (Table-4)", **{
        "cold s": round(cold_s, 2), "warm s": round(warm_s, 2),
        "speedup": round(cold_s / warm_s, 2),
        "K cold": cold.plan.num_epochs, "K warm": warm.plan.num_epochs,
        "warm solves": warm.result.stats.get("horizon_solves")})

    write_result(
        "warm_start", table.render(),
        json_name="BENCH_warm_start",
        data={
            "scenarios": results,
            "note": "cold = fresh build+solve per attempt; warm = one "
                    "built model with bound-restricted probes. "
                    "Asserted: same K and objective as the "
                    "cold search, <= 3 warm solves, warm faster than "
                    "cold; the speedup itself is published as measured.",
        },
        phases={f"{scenario}_{kind}": results[scenario][f"{kind}_s"]
                for scenario in results for kind in ("cold", "warm")})

    # what repeats exactly on every host: a bound-independent solve count
    # (the cold bisection pays one solve per halving) and a faster search
    assert warm.result.stats["horizon_solves"] <= 3, \
        results["horizon_search"]
    assert warm_s < cold_s, results["horizon_search"]

    # representative single solve for pytest-benchmark tracking
    benchmark.pedantic(
        lambda: minimize_epochs_lp(
            topology.ring(8, capacity=1.0),
            collectives.alltoall(list(range(8)), 1),
            TecclConfig(chunk_bytes=1.0)),
        rounds=1, iterations=1)
