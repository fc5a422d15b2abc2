"""Observability overhead guard: disabled tracing must cost ≤ 2%.

The tracing layer rides every hot path (model build families, solver
calls, the planner's serve steps), so its *disabled* cost is a standing
tax on everything — the design promise is "zero-overhead by default":
``span()`` checks one module global and hands back a shared no-op when
no tracer is configured.  This bench holds that promise to a number on
the Internal2-4ch ALLGATHER MILP build (a span per constraint family):

* **analytic bound** — spans the workload emits × the measured cost of
  one disabled ``span()`` round-trip, over the build's wall time.  This
  is the assertion: the instrumentation's worst-case share of the build
  must stay under ``OVERHEAD_BUDGET``.
* **A/B wall clock** — disabled vs enabled-to-memory medians, reported
  (not asserted: at micro scale the A/B delta is dominated by run-to-run
  build noise, which is exactly why the analytic bound is the guard).
* **flight recorder** — the always-on ring (``rspan()`` at coarse sites)
  must also fit the budget: recorded events per end-to-end solve × the
  measured on-cost of one ``rspan()`` ring append, over the solve's wall
  time.  Asserted, because "always on" is only tenable if it is free.

Publishes ``benchmarks/results/BENCH_obs_overhead.json``.
"""

import statistics
import time

from _common import write_result
from repro import collectives, topology
from repro.analysis import Table
from repro.core import TecclConfig
from repro.core.epochs import build_epoch_plan, path_based_epoch_bound
from repro.core.milp import MilpBuilder
from repro.core.solve import synthesize
from repro.obs import (MemorySink, configure, disable, disable_recorder,
                       get_recorder, get_tracer, rspan, span)

#: build repetitions per timing (median taken)
REPEATS = 5
#: disabled-``span()`` microbench iterations
NOOP_CALLS = 200_000
#: recorder-on ``rspan()`` microbench iterations (ring appends are
#: pricier than no-ops; fewer reps keep the bench quick)
RSPAN_CALLS = 50_000
#: the acceptance bar: disabled tracing ≤ 2% of the workload — and the
#: always-on recorder's share of an end-to-end solve
OVERHEAD_BUDGET = 0.02


def _workload():
    """Internal2-4ch AG MILP build."""
    topo = topology.internal2(4)
    demand = collectives.allgather(topo.gpus, 1)
    config = TecclConfig(chunk_bytes=1e6)
    probe = build_epoch_plan(topo, config, num_epochs=1)
    plan = build_epoch_plan(
        topo, config,
        num_epochs=path_based_epoch_bound(topo, demand, probe))
    return lambda: MilpBuilder(topo, demand, config, plan).build()


def _median_s(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _noop_span_cost_s() -> float:
    """Cost of one full disabled ``with span(...)`` round-trip."""
    start = time.perf_counter()
    for _ in range(NOOP_CALLS):
        with span("bench.noop", probe=1):
            pass
    return (time.perf_counter() - start) / NOOP_CALLS


def _rspan_cost_s(calls: int) -> float:
    """Cost of one ``with rspan(...)`` round-trip in the current mode."""
    start = time.perf_counter()
    for _ in range(calls):
        with rspan("bench.rnoop", probe=1):
            pass
    return (time.perf_counter() - start) / calls


def _solve_workload():
    """A fast end-to-end solve crossing every coarse ``rspan()`` site."""
    topo = topology.dgx1()
    demand = collectives.allgather(topo.gpus, 1)
    config = TecclConfig(chunk_bytes=1e6)
    return lambda: synthesize(topo, demand, config)


def _measure_recorder() -> dict:
    """Flight-recorder on/off measurements on an end-to-end solve.

    The recorder rings coarse ``rspan()`` sites only, so the MILP build
    microworkload never touches it — the honest denominator is a full
    ``synthesize`` crossing the planner-facing sites.
    """
    solve = _solve_workload()
    solve()  # warm caches outside the timed region

    recorder = get_recorder()  # (re-)enables the ring
    rspan_on_s = _rspan_cost_s(RSPAN_CALLS)
    disable_recorder()
    try:
        rspan_off_s = _rspan_cost_s(NOOP_CALLS)
        solve_off_s = _median_s(solve)
    finally:
        recorder = get_recorder()
    recorder.clear()
    solve_on_s = _median_s(solve)
    # ring growth across the timed repeats → recorded events per solve
    events_per_solve = len(recorder.snapshot()) // REPEATS
    assert events_per_solve >= 2, recorder.snapshot()  # synthesize + leaf
    return {
        "recorder_off_solve_s": solve_off_s,
        "recorder_on_solve_s": solve_on_s,
        "recorder_events_per_solve": events_per_solve,
        "rspan_on_s": rspan_on_s,
        "rspan_off_s": rspan_off_s,
        "recorder_analytic_overhead":
            events_per_solve * rspan_on_s / solve_off_s,
        "recorder_ab_overhead": solve_on_s / solve_off_s - 1.0,
    }


def test_disabled_tracer_overhead(benchmark):
    assert get_tracer() is None, "tracer must start disabled"
    build = _workload()
    build()  # warm imports and numpy caches outside the timed region

    disabled_s = _median_s(build)
    noop_s = _noop_span_cost_s()

    # count the spans one traced build emits
    sink = MemorySink()
    configure(sink)
    try:
        enabled_s = _median_s(build)
    finally:
        disable()
    spans_per_build = sum(1 for r in sink.records
                          if r.get("kind") == "span") // REPEATS
    assert spans_per_build >= 9, sink.records  # milp.build + families

    analytic_overhead = spans_per_build * noop_s / disabled_s
    ab_overhead = enabled_s / disabled_s - 1.0
    rec = _measure_recorder()

    table = Table("Tracing overhead on the MILP COO build (Internal2 4ch)",
                  columns=["value"])
    table.add("disabled build s", value=disabled_s)
    table.add("enabled (memory) build s", value=enabled_s)
    table.add("spans per build", value=spans_per_build)
    table.add("noop span us", value=noop_s * 1e6)
    table.add("analytic overhead %", value=100 * analytic_overhead)
    table.add("A/B delta %", value=100 * ab_overhead)
    table.add("recorder-off solve s", value=rec["recorder_off_solve_s"])
    table.add("recorder-on solve s", value=rec["recorder_on_solve_s"])
    table.add("recorded events/solve",
              value=rec["recorder_events_per_solve"])
    table.add("rspan on us", value=rec["rspan_on_s"] * 1e6)
    table.add("rspan off us", value=rec["rspan_off_s"] * 1e6)
    table.add("recorder analytic overhead %",
              value=100 * rec["recorder_analytic_overhead"])
    write_result(
        "obs_overhead", table.render(),
        json_name="BENCH_obs_overhead",
        data={
            "workload": "internal2(4)/allgather MILP coo build",
            "disabled_build_s": disabled_s,
            "enabled_memory_build_s": enabled_s,
            "spans_per_build": spans_per_build,
            "noop_span_s": noop_s,
            "analytic_overhead": analytic_overhead,
            "ab_overhead": ab_overhead,
            "budget": OVERHEAD_BUDGET,
            "recorder_workload": "dgx1/allgather end-to-end synthesize",
            **rec,
            "note": "analytic = spans/build x disabled-span cost / build "
                    "time; recorder analytic = events/solve x recorder-on "
                    "rspan cost / solve time; both asserted against the "
                    "budget",
        },
        phases={"disabled_build": disabled_s,
                "enabled_build": enabled_s,
                "recorder_off_solve": rec["recorder_off_solve_s"],
                "recorder_on_solve": rec["recorder_on_solve_s"]})

    # the acceptance bar: disabled instrumentation ≤ 2% of the workload
    assert analytic_overhead <= OVERHEAD_BUDGET, {
        "spans_per_build": spans_per_build, "noop_span_s": noop_s,
        "disabled_build_s": disabled_s, "overhead": analytic_overhead}
    # and the always-on flight recorder ≤ 2% of an end-to-end solve
    assert rec["recorder_analytic_overhead"] <= OVERHEAD_BUDGET, rec

    # representative disabled build for pytest-benchmark tracking
    benchmark.pedantic(build, rounds=3, iterations=1)
