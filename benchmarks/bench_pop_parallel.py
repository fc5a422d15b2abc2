"""Parallel decomposition solving: fan-out and dedup payoff (PR 7).

Three scenarios, each checked for *identity* with the sequential path —
the whole point of the shared sub-solve layer is that concurrency and
dedup are pure scheduling changes, never result changes:

* **Hierarchical dedup (headline)** — two fat symmetric chassis on
  Internal2: the gather and broadcast solves are canonically identical
  across chassis, so the fingerprint cache pays for each once. This is
  where the end-to-end >= 1.5x acceptance bar is asserted — the saved
  solves dominate the (unique, shared) leader-exchange solve.
* **Hierarchical dedup at G=4** — the symmetric 4-chassis acceptance
  shape: 9 phase instances collapse to 3 distinct solves (3x fewer,
  >= 2x asserted). Here the exchange MILP dominates wall clock, so the
  claim is the solve-count reduction, not elapsed time.
* **POP thread fan-out** — Table-4-style Internal2 ALLTOALL at 4
  partitions, sequential vs threaded. Identity and conformance are
  asserted unconditionally; the >= 1.5x wall-clock bar only on hosts
  with >= 2 CPUs (scipy's HiGHS releases the GIL, but one core cannot
  overlap anything — the artifact records the gate that applied).

Publishes ``benchmarks/results/BENCH_pop_parallel.json``.
"""

import os
import time

import pytest

from _common import write_result
from repro import collectives, topology
from repro.analysis import Table
from repro.core import TecclConfig
from repro.core.hierarchical import chassis_groups, hierarchical_allgather
from repro.core.pop import solve_lp_pop
from repro.simulate import check_flow, check_result
from repro.solver import SolverOptions


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _assert_hier_identical(seq, fast):
    assert fast.finish_time == pytest.approx(seq.finish_time)
    for a, b in zip(seq.phases(), fast.phases()):
        assert a.label == b.label
        assert b.synthesis.schedule.to_dict() == \
            a.synthesis.schedule.to_dict()


def _assert_hier_conformant(outcome):
    for phase in outcome.phases():
        if phase.synthesis.hyper is None:
            report = check_result(phase.synthesis,
                                  topology=phase.fabric.topology,
                                  demand=phase.demand)
        else:
            report = check_result(phase.synthesis)
        assert report.ok, (phase.label, report.violations[:3])


def _hier_scenario(topo, group: int, chunks_per_gpu: int) -> dict:
    config = TecclConfig(chunk_bytes=1e6,
                         solver=SolverOptions(time_limit=120))
    chassis = chassis_groups(topo, group)
    seq, seq_s = _timed(hierarchical_allgather, topo, config,
                        chassis=chassis, chunks_per_gpu=chunks_per_gpu,
                        dedup=False)
    ded, ded_s = _timed(hierarchical_allgather, topo, config,
                        chassis=chassis, chunks_per_gpu=chunks_per_gpu,
                        jobs=None, dedup=True)
    _assert_hier_identical(seq, ded)
    _assert_hier_conformant(ded)
    return {
        "topology": topo.name, "chassis": len(chassis),
        "gpus_per_chassis": group, "chunks_per_gpu": chunks_per_gpu,
        "seq_s": seq_s, "dedup_s": ded_s, "speedup": seq_s / ded_s,
        "seq_solves": seq.sub_solves, "dedup_solves": ded.sub_solves,
        "dedup_hits": ded.dedup_hits,
        "solve_reduction": seq.sub_solves / ded.sub_solves,
        "finish_time": ded.finish_time,
    }


def test_parallel_decomposition_speedup(benchmark):
    table = Table("Parallel decomposition solving (PR 7)",
                  columns=["seq s", "par s", "speedup", "solves seq",
                           "solves par", "hits"])
    results: dict[str, dict] = {}

    # -- headline: fat symmetric chassis, dedup pays for the duplicates --
    results["hier_dedup_wall"] = _hier_scenario(
        topology.internal2(4), group=4, chunks_per_gpu=1)
    row = results["hier_dedup_wall"]
    table.add("hier dedup (2x4 chassis)", **{
        "seq s": round(row["seq_s"], 2), "par s": round(row["dedup_s"], 2),
        "speedup": round(row["speedup"], 2),
        "solves seq": row["seq_solves"], "solves par": row["dedup_solves"],
        "hits": row["dedup_hits"]})

    # -- acceptance shape: symmetric G=4, 9 instances -> 3 solves --------
    results["hier_dedup_solves"] = _hier_scenario(
        topology.internal2(4), group=2, chunks_per_gpu=2)
    row = results["hier_dedup_solves"]
    table.add("hier dedup (4x2 chassis)", **{
        "seq s": round(row["seq_s"], 2), "par s": round(row["dedup_s"], 2),
        "speedup": round(row["speedup"], 2),
        "solves seq": row["seq_solves"], "solves par": row["dedup_solves"],
        "hits": row["dedup_hits"]})

    # -- POP thread fan-out on a Table-4-style instance ------------------
    pop_topo = topology.internal2(8)
    pop_demand = collectives.alltoall(pop_topo.gpus, 1)
    pop_config = TecclConfig(chunk_bytes=1e6,
                             solver=SolverOptions(time_limit=120))
    seq_pop, seq_pop_s = _timed(solve_lp_pop, pop_topo, pop_demand,
                                pop_config, num_partitions=4)
    par_pop, par_pop_s = _timed(solve_lp_pop, pop_topo, pop_demand,
                                pop_config, num_partitions=4,
                                jobs=4)
    assert par_pop.attempts == seq_pop.attempts
    assert par_pop.schedule.flows == seq_pop.schedule.flows
    assert par_pop.schedule.reads == seq_pop.schedule.reads
    report = check_flow(par_pop.schedule, pop_topo, pop_demand,
                        par_pop.plan, config=pop_config)
    assert report.ok, report.violations[:3]
    multi_cpu = (os.cpu_count() or 1) >= 2
    results["pop_fanout"] = {
        "topology": pop_topo.name, "gpus": len(pop_topo.gpus),
        "partitions": 4, "attempts": par_pop.attempts,
        "seq_s": seq_pop_s, "par_s": par_pop_s,
        "speedup": seq_pop_s / par_pop_s,
        "wall_clock_asserted": multi_cpu,
        "note": ("wall-clock bar asserted" if multi_cpu else
                 "single-CPU host: threads cannot overlap solver work; "
                 "identity and conformance asserted, wall clock not"),
    }
    table.add("POP fan-out (4 partitions)", **{
        "seq s": round(seq_pop_s, 2), "par s": round(par_pop_s, 2),
        "speedup": round(seq_pop_s / par_pop_s, 2),
        "solves seq": 4, "solves par": 4, "hits": 0})

    write_result(
        "pop_parallel", table.render(),
        json_name="BENCH_pop_parallel",
        data={
            "scenarios": results,
            "note": "every parallel/deduped result is asserted "
                    "schedule-identical to its sequential twin and "
                    "conformance-clean before any timing claim.",
        },
        phases={f"{scenario}_{kind}": results[scenario][kind]
                for scenario, kinds in (
                    ("hier_dedup_wall", ("seq_s", "dedup_s")),
                    ("hier_dedup_solves", ("seq_s", "dedup_s")),
                    ("pop_fanout", ("seq_s", "par_s")))
                for kind in kinds})

    # the PR's acceptance bars, re-asserted on every bench run
    assert results["hier_dedup_wall"]["speedup"] >= 1.5, results
    assert results["hier_dedup_solves"]["solve_reduction"] >= 2.0, results
    if multi_cpu:
        assert results["pop_fanout"]["speedup"] >= 1.5, results

    # representative single solve for pytest-benchmark tracking
    benchmark.pedantic(
        lambda: hierarchical_allgather(
            topology.internal2(2),
            TecclConfig(chunk_bytes=1e6,
                        solver=SolverOptions(mip_gap=0.2, time_limit=30)),
            chassis=chassis_groups(topology.internal2(2), 2),
            jobs=None, dedup=True),
        rounds=1, iterations=1)
