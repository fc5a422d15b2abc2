"""Symmetry reduction end-to-end benchmark on symmetric Table-4 instances.

The quotient construction (``repro.core.symmetry``) solves one variable and
constraint block per automorphism orbit and lifts the reduced solution back
to the full fabric, replay-vetted by the conformance oracle. This bench
times the full LP pipeline with ``symmetry=off`` vs ``symmetry=on`` on the
symmetric members of the Table-4 family (uniform ring, 2-D torus), asserts
the ≥8× end-to-end win on *every* instance and objective parity, and
publishes per-orbit variable/constraint counts to
``benchmarks/results/BENCH_symmetry.json`` so future PRs can track
compression regressions.

The torus8x8 row (``test_torus8x8_footprint``, marked slow: the weekly
lane) times one cold ``synthesize`` of torus8x8 ALLTOALL in a fresh
process and reads that process's peak RSS: the 1.67 M-column LP is solved
as its 4 717-column quotient, emitted without the full model, and must
stay within 400 MB (``BENCH_symmetry_footprint.json``).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from _common import timed, write_result
from repro import collectives, topology
from repro.analysis import Table
from repro.core import TecclConfig
from repro.core.lp import solve_lp
from repro.simulate import check_flow
from repro.solver import SolverOptions

#: (label, topology factory) — symmetric fabrics at Table-4 scale
CELLS = (
    ("Ring16 AtoA LP", lambda: topology.ring(16, capacity=1.0, alpha=0.0)),
    ("Torus4x4 AtoA LP", lambda: topology.torus2d(4, 4, capacity=1.0,
                                                  alpha=0.0)),
)


def _config(mode: str) -> TecclConfig:
    return TecclConfig(chunk_bytes=1.0,
                       solver=SolverOptions(symmetry=mode, time_limit=300))


def test_symmetry_speedup(benchmark):
    table = Table("Symmetry reduction — full vs quotient LP, end to end",
                  columns=["cols", "cols/orbit", "rows", "rows/orbit",
                           "gens", "off s", "on s", "speedup"])
    records = []
    speedups = {}
    for label, factory in CELLS:
        topo = factory()
        demand = collectives.alltoall(topo.gpus, 1)

        full, off_time = timed(solve_lp, topo, demand, _config("off"))
        reduced, on_time = timed(solve_lp, topo, demand, _config("on"))

        stats = reduced.result.stats
        assert stats.get("symmetry_generators", 0) > 0, label
        assert stats.get("symmetry_conformant") is True, label
        # the quotient restriction is exact: equal LP optimum
        assert abs(reduced.result.objective - full.result.objective) \
            <= 1e-7 * max(1.0, abs(full.result.objective)), label
        report = check_flow(reduced.schedule, topo, demand, reduced.plan,
                            config=_config("on"))
        assert report.ok, (label, [str(v) for v in report.violations[:3]])

        speedup = off_time / on_time if on_time else float("inf")
        speedups[label] = speedup
        table.add(label,
                  **{"cols": stats["symmetry_cols_full"],
                     "cols/orbit": stats["symmetry_cols_reduced"],
                     "rows": stats["symmetry_rows_full"],
                     "rows/orbit": stats["symmetry_rows_reduced"],
                     "gens": f"{stats['symmetry_generators']}"
                             f"+{stats['symmetry_generators_skipped']}skip",
                     "off s": off_time, "on s": on_time,
                     "speedup": speedup})
        records.append({
            "instance": label, "gpus": topo.num_gpus,
            "cols_full": stats["symmetry_cols_full"],
            "cols_reduced": stats["symmetry_cols_reduced"],
            "rows_full": stats["symmetry_rows_full"],
            "rows_reduced": stats["symmetry_rows_reduced"],
            "generators": stats["symmetry_generators"],
            "generators_skipped": stats["symmetry_generators_skipped"],
            "orbits": stats["symmetry_orbits"],
            "solve_off_s": off_time, "solve_on_s": on_time,
            "speedup": speedup,
            "objective": reduced.result.objective,
        })

    write_result(
        "symmetry", table.render(),
        json_name="BENCH_symmetry",
        data={"instances": records,
              "note": "quotient-vs-full LP wall clock and per-orbit "
                      "model sizes on symmetric fabrics (PR 9)"},
        phases={"solve_off": sum(r["solve_off_s"] for r in records),
                "solve_on": sum(r["solve_on_s"] for r in records)})

    # the acceptance claim, on every instance: measured 17.9-19.8× (ring16)
    # and 14.8-17.1× (torus4x4) with the array kernels of PR 15; the floor
    # leaves most of a factor of two for slower hosts
    assert min(speedups.values()) >= 8.0, speedups

    # representative quotient solve for pytest-benchmark tracking
    topo = topology.ring(16, capacity=1.0, alpha=0.0)
    demand = collectives.alltoall(topo.gpus, 1)
    benchmark.pedantic(lambda: solve_lp(topo, demand, _config("on")),
                       rounds=1, iterations=1)


#: one cold torus8x8 ALLTOALL synthesize, run in a fresh process so its
#: peak RSS is the solve's own
_FOOTPRINT_CHILD = """
import json, time
from repro import collectives, topology
from repro.core import TecclConfig, synthesize
topo = topology.torus2d(8, 8, capacity=1.0, alpha=0.0)
start = time.perf_counter()
result = synthesize(topo, collectives.alltoall(topo.gpus, 1),
                    TecclConfig(chunk_bytes=1.0))
stats = result.outcome.result.stats
print(json.dumps({"wall_s": time.perf_counter() - start,
                  "finish_time": result.finish_time,
                  "cols_full": stats["symmetry_cols_full"],
                  "cols_reduced": stats["symmetry_cols_reduced"]}))
"""

#: peak RSS ceiling of that process (measured 272 MB; 832 MB when the
#: full model was built and then reduced)
FOOTPRINT_MAX_MB = 400


def footprint() -> dict:
    """Wall, peak RSS (MB) and model sizes of the child solve."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen([sys.executable, "-c", _FOOTPRINT_CHILD],
                             stdout=subprocess.PIPE, env=env, text=True)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0, out
    return {**json.loads(out), "peak_rss_mb": usage.ru_maxrss / 1024}


@pytest.mark.slow
def test_torus8x8_footprint():
    row = footprint()
    table = Table("Quotient-first footprint — torus8x8 ALLTOALL, one cold "
                  "synthesize in a fresh process",
                  columns=["cols", "cols/orbit", "wall s", "peak RSS MB"])
    table.add("Torus8x8 AtoA LP", **{
        "cols": row["cols_full"], "cols/orbit": row["cols_reduced"],
        "wall s": row["wall_s"], "peak RSS MB": row["peak_rss_mb"]})
    write_result("symmetry_footprint", table.render(),
                 json_name="BENCH_symmetry_footprint",
                 data={"instances": [{"instance": "Torus8x8 AtoA LP", **row}],
                       "note": "peak RSS of a fresh process solving the "
                               "quotient without the full model"},
                 phases={"synthesize": row["wall_s"]})
    assert row["cols_reduced"] < row["cols_full"]
    assert row["peak_rss_mb"] <= FOOTPRINT_MAX_MB, row
