"""Observability overhead guard: ``span()`` must cost ≤ 2% in both states.

There is one ``span()`` and it rides every phase (model build phases,
solver calls, the planner's serve steps), so its cost is a standing tax
on everything.  It has two states worth a number, and this bench measures
the same function in both:

* **all sinks off** (no tracer, recorder disabled, no phase collector) —
  ``span()`` hands back the shared no-op.  Asserted on the Internal2-4ch
  ALLGATHER MILP build (``milp.build`` writes the template,
  ``milp.expand`` the model): spans the build emits × the measured
  all-off round-trip, over the build's wall time,
  must stay under ``OVERHEAD_BUDGET``.
* **recorder on, tracer off** (the default) — every span is two clock
  reads and a ring append.  Asserted on an end-to-end solve: ring records
  per ``synthesize`` × the measured recorder-on round-trip, over the
  solve's wall time, under the same budget — "always on" is only tenable
  if it is free, and the count is what a span in a per-element loop
  would blow.
* **A/B wall clocks** — all-off vs traced-to-memory builds, recorder-off
  vs recorder-on solves: reported, not asserted (at this scale the A/B
  delta is run-to-run noise, which is why the analytic bounds are the
  guards).

Publishes ``benchmarks/results/BENCH_obs_overhead.json``.
"""

import contextlib
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
                       get_recorder, get_tracer, span)

#: build repetitions per timing (median taken)
REPEATS = 5
#: all-off ``span()`` microbench iterations
NOOP_CALLS = 200_000
#: recorder-on ``span()`` microbench iterations (ring appends are
#: pricier than no-ops; fewer reps keep the bench quick)
RING_CALLS = 50_000
#: the acceptance bar: all-off spans ≤ 2% of the build — and the
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


@contextlib.contextmanager
def _recorder_off():
    """The all-sinks-off state (no tracer is configured in this bench)."""
    disable_recorder()
    try:
        yield
    finally:
        get_recorder()  # re-enables the ring


def _median_s(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _span_cost_s(calls: int) -> float:
    """Cost of one ``with span(...)`` round-trip in the current state."""
    start = time.perf_counter()
    for _ in range(calls):
        with span("bench.noop", probe=1):
            pass
    return (time.perf_counter() - start) / calls


def _solve_workload():
    """A fast end-to-end solve crossing every solve-side ``span()`` site:
    ring8 ALLTOALL solves through its symmetry quotient, so one solve runs
    detect, reduce, ``symmetry.solve``, prepare, backend, extract and the
    conformance vet."""
    topo = topology.ring(8, capacity=1.0)
    demand = collectives.alltoall(topo.gpus, 1)
    config = TecclConfig(chunk_bytes=1.0)
    return lambda: synthesize(topo, demand, config)


def _measure_recorder() -> dict:
    """Recorder on/off measurements on an end-to-end solve (tracer off)."""
    solve = _solve_workload()
    solve()  # warm caches outside the timed region

    recorder = get_recorder()  # (re-)enables the ring
    span_on_s = _span_cost_s(RING_CALLS)
    recorder.clear()
    solve_on_s = _median_s(solve)
    # ring growth across the timed repeats → ring records per solve
    events_per_solve = len(recorder.snapshot()) // REPEATS
    assert events_per_solve >= 9, recorder.snapshot()  # the solve's phases
    with _recorder_off():
        solve_off_s = _median_s(solve)
    return {
        "recorder_off_solve_s": solve_off_s,
        "recorder_on_solve_s": solve_on_s,
        "recorder_events_per_solve": events_per_solve,
        "span_on_s": span_on_s,
        "recorder_analytic_overhead":
            events_per_solve * span_on_s / solve_off_s,
        "recorder_ab_overhead": solve_on_s / solve_off_s - 1.0,
    }


def test_span_overhead(benchmark):
    assert get_tracer() is None, "tracer must start disabled"
    build = _workload()
    build()  # warm imports and numpy caches outside the timed region

    with _recorder_off():  # span() is the shared no-op
        disabled_s = _median_s(build)
        span_off_s = _span_cost_s(NOOP_CALLS)

    # count the spans one traced build emits
    sink = MemorySink()
    configure(sink)
    try:
        enabled_s = _median_s(build)
    finally:
        disable()
    spans = [r["name"] for r in sink.records if r.get("kind") == "span"]
    spans_per_build = len(spans) // REPEATS
    # the template, then its expansion
    assert sorted(set(spans)) == ["milp.build", "milp.expand"] \
        and spans_per_build == 2, sink.records

    analytic_overhead = spans_per_build * span_off_s / disabled_s
    ab_overhead = enabled_s / disabled_s - 1.0
    rec = _measure_recorder()

    table = Table("span() overhead: all-off MILP build (Internal2 "
                  "4ch), recorder-on solve (ring8 A2A)", columns=["value"])
    table.add("all-off build s", value=disabled_s)
    table.add("traced (memory) build s", value=enabled_s)
    table.add("spans per build", value=spans_per_build)
    table.add("span off us", value=span_off_s * 1e6)
    table.add("analytic overhead %", value=100 * analytic_overhead)
    table.add("A/B delta %", value=100 * ab_overhead)
    table.add("recorder-off solve s", value=rec["recorder_off_solve_s"])
    table.add("recorder-on solve s", value=rec["recorder_on_solve_s"])
    table.add("ring records/solve",
              value=rec["recorder_events_per_solve"])
    table.add("span on us", value=rec["span_on_s"] * 1e6)
    table.add("recorder analytic overhead %",
              value=100 * rec["recorder_analytic_overhead"])
    write_result(
        "obs_overhead", table.render(),
        json_name="BENCH_obs_overhead",
        data={
            "workload": "internal2(4)/allgather MILP build",
            "disabled_build_s": disabled_s,
            "enabled_memory_build_s": enabled_s,
            "spans_per_build": spans_per_build,
            "span_off_s": span_off_s,
            "analytic_overhead": analytic_overhead,
            "ab_overhead": ab_overhead,
            "budget": OVERHEAD_BUDGET,
            "recorder_workload": "ring8/alltoall end-to-end synthesize",
            **rec,
            "note": "analytic = spans/build x all-off span cost / build "
                    "time; recorder analytic = ring records/solve x "
                    "recorder-on span cost / solve time; both asserted "
                    "against the budget",
        },
        phases={"disabled_build": disabled_s,
                "enabled_build": enabled_s,
                "recorder_off_solve": rec["recorder_off_solve_s"],
                "recorder_on_solve": rec["recorder_on_solve_s"]})

    # the acceptance bar: all-off instrumentation ≤ 2% of the workload
    assert analytic_overhead <= OVERHEAD_BUDGET, {
        "spans_per_build": spans_per_build, "span_off_s": span_off_s,
        "disabled_build_s": disabled_s, "overhead": analytic_overhead}
    # and the always-on flight recorder ≤ 2% of an end-to-end solve
    assert rec["recorder_analytic_overhead"] <= OVERHEAD_BUDGET, rec

    # representative all-off build for pytest-benchmark tracking
    with _recorder_off():
        benchmark.pedantic(build, rounds=3, iterations=1)
