"""Command-line interface: ``teccl synth ...`` / ``python -m repro ...``.

Examples::

    teccl topologies
    teccl synth --topology ndv2 --chassis 2 --collective allgather \
        --chunk-size 1e6 --method auto
    teccl synth --topology dgx1 --collective allgather --export algo.xml
    teccl verify --xml algo.xml --topology dgx1 --collective allgather
    teccl compare --topology dgx1 --collective allgather
    teccl impact --topology ndv2 --chassis 2 --top 5
    teccl upgrade --topology dgx1 --factor 2 --top 5
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.config import EpochMode, SwitchModel
from repro.core.solve import Method, synthesize
from repro.errors import ReproError, TopologyError

_TOPOLOGIES = {
    # size = the --chassis/--size argument; each entry documents its meaning
    "dgx1": lambda size: topology.dgx1(),
    "ndv2": topology.ndv2,
    "dgx2": topology.dgx2,
    "internal1": topology.internal1,
    "internal2": topology.internal2,
    "fattree": lambda size: topology.fat_tree(2 * size),
    "torus": lambda size: topology.torus2d(max(2, size), max(2, size)),
    "hypercube": topology.hypercube,
    "leafspine": lambda size: topology.leaf_spine(size, 4, 2),
}

_COLLECTIVES = {
    "allgather": lambda gpus, chunks: collectives.allgather(gpus, chunks),
    "alltoall": lambda gpus, chunks: collectives.alltoall(gpus, chunks),
    "broadcast": lambda gpus, chunks: collectives.broadcast(
        gpus[0], gpus[1:], chunks),
    "reducescatter": lambda gpus, chunks: collectives.reduce_scatter(
        gpus, chunks),
}

_WORKLOADS = {
    "bert": lambda gpus: collectives.bert_like_job(gpus),
    "dlrm": lambda gpus: collectives.dlrm_like_job(gpus),
    "moe": lambda gpus: collectives.moe_job(gpus, skew=0.5),
    "pipeline": lambda gpus: collectives.pipeline_job(gpus),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teccl",
        description="TE-CCL: collective communication schedule synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("topologies", help="list built-in topologies")

    synth = sub.add_parser("synth", help="synthesize a schedule")
    synth.add_argument("--topology", choices=sorted(_TOPOLOGIES),
                       required=True)
    synth.add_argument("--chassis", type=int, default=1)
    synth.add_argument("--collective", choices=sorted(_COLLECTIVES),
                       default="allgather")
    synth.add_argument("--chunks", type=int, default=1,
                       help="chunks per source (or per pair for alltoall)")
    synth.add_argument("--chunk-size", type=float, default=1e6,
                       help="bytes per chunk")
    synth.add_argument("--epochs", type=int, default=None,
                       help="horizon K (default: auto upper bound)")
    synth.add_argument("--method",
                       choices=[m.value for m in Method], default="auto")
    synth.add_argument("--epoch-mode",
                       choices=[m.value for m in EpochMode],
                       default=EpochMode.FASTEST_LINK.value)
    synth.add_argument("--switch-model",
                       choices=[m.value for m in SwitchModel],
                       default=SwitchModel.COPY.value)
    synth.add_argument("--time-limit", type=float, default=None)
    synth.add_argument("--mip-gap", type=float, default=0.0)
    synth.add_argument("--symmetry", choices=["auto", "on", "off"],
                       default="auto",
                       help="quotient the solve by verified fabric "
                            "automorphisms (auto: large models only; "
                            "results are always conformance-vetted with "
                            "cold fallback, so this only affects speed)")
    synth.add_argument("--export", metavar="FILE", default=None,
                       help="write the schedule as MSCCL XML")
    synth.add_argument("--export-json", metavar="FILE", default=None,
                       help="write the full synthesis result as JSON "
                            "(replayable with `teccl verify --schedule`)")
    synth.add_argument("--timeline", action="store_true",
                       help="print the per-link ASCII timeline")
    synth.add_argument("--events", action="store_true",
                       help="also report the continuous-time (event) finish")
    synth.add_argument("--check", action="store_true",
                       help="replay the schedule through the conformance "
                            "engine before reporting it")
    synth.add_argument("--trace", metavar="FILE", default=None,
                       help="write a phase-level span trace (JSONL); "
                            "inspect with `teccl obs summary|export-trace`")
    synth.add_argument("--partitions", type=int, default=0,
                       help="solve via POP partitioning with this many "
                            "client groups (LP-shaped demands only, e.g. "
                            "alltoall; 0 = monolithic solve). The merged "
                            "schedule is fractional, so --export/--timeline"
                            "/--events do not apply")
    synth.add_argument("--jobs", type=int, default=1,
                       help="with --partitions: solve the POP partitions "
                            "on this many threads (1 = sequential, 0 = "
                            "CPU count; see README 'Parallel "
                            "decomposition solving')")

    sweep = sub.add_parser("sweep", help="sweep chunk sizes (§5)")
    sweep.add_argument("--topology", choices=sorted(_TOPOLOGIES),
                       required=True)
    sweep.add_argument("--chassis", type=int, default=1)
    sweep.add_argument("--collective", choices=sorted(_COLLECTIVES),
                       default="allgather")
    sweep.add_argument("--chunk-sizes", type=str, required=True,
                       help="comma-separated byte counts, e.g. 1e5,1e6,1e7")
    sweep.add_argument("--mip-gap", type=float, default=0.1)
    sweep.add_argument("--time-limit", type=float, default=60.0)

    compare = sub.add_parser(
        "compare", help="TE-CCL vs baselines on one collective")
    compare.add_argument("--topology", choices=sorted(_TOPOLOGIES),
                         required=True)
    compare.add_argument("--chassis", type=int, default=1)
    compare.add_argument("--collective", choices=sorted(_COLLECTIVES),
                         default="allgather")
    compare.add_argument("--chunks", type=int, default=1)
    compare.add_argument("--chunk-size", type=float, default=1e6)
    compare.add_argument("--mip-gap", type=float, default=0.1)
    compare.add_argument("--time-limit", type=float, default=60.0)

    verify_cmd = sub.add_parser(
        "verify",
        help="verify a schedule: conformance-replay a synthesis result "
             "(--schedule) or execute an exported MSCCL program (--xml)")
    what = verify_cmd.add_mutually_exclusive_group(required=True)
    what.add_argument("--xml", metavar="FILE", default=None,
                      help="exported MSCCL program (runs the interpreter)")
    what.add_argument("--schedule", metavar="FILE", default=None,
                      help="synthesis-result JSON (runs the conformance "
                           "engine; see `teccl synth --export-json`)")
    verify_cmd.add_argument("--topology", choices=sorted(_TOPOLOGIES),
                            default=None,
                            help="required with --xml; ignored with "
                                 "--schedule (the document carries its own)")
    verify_cmd.add_argument("--chassis", type=int, default=1)
    verify_cmd.add_argument("--collective", choices=sorted(_COLLECTIVES),
                            default="allgather")
    verify_cmd.add_argument("--chunks", type=int, default=1)
    verify_cmd.add_argument("--chunk-size", type=float, default=1e6)

    impact = sub.add_parser(
        "impact", help="per-link failure criticality (re-synthesis cost)")
    impact.add_argument("--topology", choices=sorted(_TOPOLOGIES),
                        required=True)
    impact.add_argument("--chassis", type=int, default=1)
    impact.add_argument("--collective", choices=sorted(_COLLECTIVES),
                        default="allgather")
    impact.add_argument("--chunk-size", type=float, default=1e6)
    impact.add_argument("--top", type=int, default=10)
    impact.add_argument("--mip-gap", type=float, default=0.1)
    impact.add_argument("--time-limit", type=float, default=30.0)

    upgrade = sub.add_parser(
        "upgrade", help="what-if link upgrades (toposearch)")
    upgrade.add_argument("--topology", choices=sorted(_TOPOLOGIES),
                         required=True)
    upgrade.add_argument("--chassis", type=int, default=1)
    upgrade.add_argument("--collective", choices=sorted(_COLLECTIVES),
                         default="allgather")
    upgrade.add_argument("--chunk-size", type=float, default=1e6)
    upgrade.add_argument("--factor", type=float, default=2.0)
    upgrade.add_argument("--top", type=int, default=10)
    upgrade.add_argument("--mip-gap", type=float, default=0.1)
    upgrade.add_argument("--time-limit", type=float, default=30.0)

    workload = sub.add_parser(
        "workload", help="schedule a whole training step's communication")
    workload.add_argument("--topology", choices=sorted(_TOPOLOGIES),
                          required=True)
    workload.add_argument("--chassis", type=int, default=1)
    workload.add_argument("--job", choices=sorted(_WORKLOADS),
                          required=True)
    workload.add_argument("--mip-gap", type=float, default=0.2)
    workload.add_argument("--time-limit", type=float, default=30.0)

    serve = sub.add_parser(
        "serve-batch",
        help="serve a batch of plan requests through the planner service")
    serve.add_argument("--requests", metavar="FILE", required=True,
                       help="JSON file: a list of request specs (compact "
                            "named-topology form or full PlanRequest dicts)")
    serve.add_argument("--cache-dir", default=None,
                       help="enable the on-disk schedule cache")
    serve.add_argument("--workers", type=int, default=None,
                       help="solve-pool width (default: cpu count)")
    serve.add_argument("--pool", dest="pool_kind", default="process",
                       choices=["process", "thread", "inline"],
                       help="solve-pool executor kind")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-request wall-clock budget in seconds")
    serve.add_argument("--check", action="store_true",
                       help="conformance-replay every served schedule; "
                            "non-conformant plans become errors")
    serve.add_argument("--trace", metavar="FILE", default=None,
                       help="write a span trace (JSONL) of every serve, "
                            "worker-process solve spans included")
    serve.add_argument("--metrics-file", metavar="FILE", default=None,
                       help="write the planner+pool metrics snapshot as "
                            "JSON (render with `teccl obs metrics`)")
    serve.add_argument("--responses-file", metavar="FILE", default=None,
                       help="write every PlanResponse (JSON list, explain "
                            "records included; render one with "
                            "`teccl explain --response`)")
    serve.add_argument("--flight-dir", default=None,
                       help="flight-recorder directory: enables auto "
                            "dumps on failure and `teccl explain --last`")

    explain = sub.add_parser(
        "explain",
        help="render a plan's provenance record (where the schedule came "
             "from and what each stage cost)")
    explain_src = explain.add_mutually_exclusive_group(required=True)
    explain_src.add_argument("--last", action="store_true",
                             help="the most recent successful serve's "
                                  "record (needs a flight dir: --flight-dir "
                                  "or $TECCL_FLIGHT_DIR)")
    explain_src.add_argument("--response", metavar="FILE",
                             help="a PlanResponse JSON document "
                                  "(see `serve-batch --responses-file`)")
    explain.add_argument("--flight-dir", default=None,
                         help="flight-recorder directory holding "
                              "last_explain.json (default: "
                              "$TECCL_FLIGHT_DIR)")
    explain.add_argument("--json", dest="as_json", action="store_true",
                         help="emit the raw record as JSON")

    cache = sub.add_parser(
        "cache", help="inspect or purge an on-disk schedule cache")
    cache.add_argument("--dir", dest="cache_dir", required=True)
    cache.add_argument("--action", choices=["stats", "list", "purge"],
                       default="stats")

    bench_sweep = sub.add_parser(
        "bench-sweep",
        help="hccl_demo-style message-size sweep: algbw/busbw per 2^k size")
    bench_sweep.add_argument("--topology", choices=sorted(_TOPOLOGIES),
                             required=True)
    bench_sweep.add_argument("--chassis", type=int, default=1)
    bench_sweep.add_argument("--collective",
                             choices=["allgather", "alltoall", "allreduce"],
                             default="allgather")
    bench_sweep.add_argument("--min-size", type=float, default=4096,
                             help="smallest buffer in bytes (rounded up to "
                                  "a power of two)")
    bench_sweep.add_argument("--max-size", type=float, default=4194304,
                             help="largest buffer in bytes")
    bench_sweep.add_argument("--mip-gap", type=float, default=0.1)
    bench_sweep.add_argument("--time-limit", type=float, default=30.0)
    bench_sweep.add_argument("--output", default=None,
                             help="JSON results file (default: "
                                  "benchmarks/results/BENCH_fleet_sweep"
                                  ".json when run from the repo root)")

    fleet = sub.add_parser(
        "fleet", help="fleet control plane: telemetry-driven adaptation")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = fleet_sub.add_parser(
        "run", help="run the adaptation daemon over a seeded scenario")
    fleet_run.add_argument("--topology", choices=sorted(_TOPOLOGIES),
                           required=True)
    fleet_run.add_argument("--chassis", type=int, default=1)
    fleet_run.add_argument("--jobs", default="alltoall",
                           help="comma-separated collectives, one fleet "
                                "job each (e.g. alltoall,allgather)")
    fleet_run.add_argument("--chunks", type=int, default=1)
    fleet_run.add_argument("--chunk-size", type=float, default=1e6)
    fleet_run.add_argument("--steps", type=int, default=8,
                           help="telemetry polls to run")
    fleet_run.add_argument("--seed", type=int, default=0)
    fleet_run.add_argument("--drift", type=float, default=0.0,
                           help="random-walk capacity drift sigma "
                                "(0 = stable fabric)")
    fleet_run.add_argument("--degrade", action="append", default=[],
                           metavar="SRC,DST,FACTOR,AT",
                           help="scripted degradation, repeatable "
                                "(e.g. 0,1,0.5,2)")
    fleet_run.add_argument("--fail", action="append", default=[],
                           metavar="SRC,DST,AT",
                           help="scripted link failure, repeatable")
    fleet_run.add_argument("--pool", dest="pool_kind", default="inline",
                           choices=["process", "thread", "inline"])
    fleet_run.add_argument("--mip-gap", type=float, default=0.1)
    fleet_run.add_argument("--time-limit", type=float, default=30.0)
    fleet_run.add_argument("--status-file", default=None,
                           help="write the final fleet status as JSON "
                                "(readable with `teccl fleet status`)")
    fleet_run.add_argument("--wal", metavar="FILE", default=None,
                           help="write-ahead log: every lifecycle "
                                "transition is durably journaled before "
                                "it applies (see repro.fleet.wal)")
    fleet_run.add_argument("--recover", action="store_true",
                           help="rehydrate the control plane from --wal "
                                "before running (crash recovery); "
                                "recovered schedules are re-vetted "
                                "through the conformance oracle")
    fleet_run.add_argument("--takeover", action="store_true",
                           help="fence a previous daemon generation and "
                                "take the --wal lease even if its holder "
                                "is still alive")
    fleet_run.add_argument("--trace", metavar="FILE", default=None,
                           help="write a span trace (JSONL) of the run: "
                                "poll/estimate/gate/replan per step")
    fleet_run.add_argument("--flight-dir", default=None,
                           help="flight-recorder directory: rollbacks, "
                                "recovery drops, firing alerts and SIGUSR2 "
                                "each dump the recent-event ring there")

    fleet_status = fleet_sub.add_parser(
        "status", help="render a status file written by `teccl fleet run`")
    fleet_status.add_argument("--status-file", required=True)

    obs = sub.add_parser(
        "obs", help="observability: inspect traces and metrics snapshots")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_summary = obs_sub.add_parser(
        "summary",
        help="per-phase totals, self time, and leaf coverage of a trace")
    obs_summary.add_argument("--trace", metavar="FILE", required=True,
                             help="JSONL trace (see `synth --trace`)")
    obs_summary.add_argument("--top", type=int, default=20,
                             help="phases to show (by total time)")

    obs_export = obs_sub.add_parser(
        "export-trace",
        help="convert a JSONL trace to Chrome trace-event JSON "
             "(loadable in chrome://tracing or https://ui.perfetto.dev)")
    obs_export.add_argument("--trace", metavar="FILE", required=True)
    obs_export.add_argument("--output", metavar="FILE", required=True)

    obs_metrics = obs_sub.add_parser(
        "metrics",
        help="render a metrics snapshot (see `serve-batch --metrics-file`)")
    obs_metrics.add_argument("--file", metavar="FILE", required=True,
                             help="metrics snapshot JSON")
    obs_metrics.add_argument("--format", dest="metrics_format",
                             choices=["table", "prometheus", "json"],
                             default="table")

    obs_dump = obs_sub.add_parser(
        "dump",
        help="flight recorder: render a dump file, or dump this "
             "process's ring on demand")
    obs_dump.add_argument("--file", metavar="FILE", default=None,
                          help="an existing flight dump (JSONL) to render")
    obs_dump.add_argument("--output", metavar="FILE", default=None,
                          help="dump the in-process recorder ring here "
                               "(then render it)")
    obs_dump.add_argument("--limit", type=int, default=None,
                          help="show only the newest N events")
    obs_dump.add_argument("--json", dest="as_json", action="store_true",
                          help="emit raw event records as JSON lines")

    obs_alerts = obs_sub.add_parser(
        "alerts",
        help="evaluate SLO alert rules against a metrics snapshot, or "
             "render the alerts a fleet status file recorded")
    alerts_src = obs_alerts.add_mutually_exclusive_group(required=True)
    alerts_src.add_argument("--metrics-file", metavar="FILE",
                            help="metrics snapshot JSON (see "
                                 "`serve-batch --metrics-file`)")
    alerts_src.add_argument("--status-file", metavar="FILE",
                            help="fleet status JSON: render the alerts "
                                 "its last evaluation recorded")
    obs_alerts.add_argument("--rules", metavar="FILE", default=None,
                            help="JSON list of alert-rule dicts to use "
                                 "instead of the built-in SLO set")
    obs_alerts.add_argument("--json", dest="as_json", action="store_true",
                            help="emit firing alerts as JSON")
    return parser


def _cmd_topologies() -> int:
    for name, builder in sorted(_TOPOLOGIES.items()):
        topo = builder(2) if name != "dgx1" else builder(1)
        print(f"{name:<10} e.g. {topo!r}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if not args.trace:
        return _run_synth(args)
    from repro import obs

    obs.configure(args.trace)
    try:
        code = _run_synth(args)
    finally:
        obs.disable()
    summary = obs.summarize(obs.read_events(args.trace))
    print(f"trace        : {args.trace} ({summary['num_spans']} spans, "
          f"leaf coverage {100 * summary['coverage']:.1f}%)")
    return code


def _run_synth(args: argparse.Namespace) -> int:
    from repro.solver import SolverOptions

    builder = _TOPOLOGIES[args.topology]
    topo = builder(args.chassis) if args.topology != "dgx1" else builder(1)
    demand = _COLLECTIVES[args.collective](topo.gpus, args.chunks)
    config = TecclConfig(
        chunk_bytes=args.chunk_size,
        num_epochs=args.epochs,
        epoch_mode=EpochMode(args.epoch_mode),
        switch_model=SwitchModel(args.switch_model),
        solver=SolverOptions(time_limit=args.time_limit,
                             mip_gap=args.mip_gap,
                             symmetry=args.symmetry))
    if getattr(args, "partitions", 0):
        return _run_synth_pop(args, topo, demand, config)
    result = synthesize(topo, demand, config, method=Method(args.method))
    print(f"topology     : {topo!r}")
    print(f"demand       : {demand!r}")
    print(f"method       : {result.method.value}")
    print(f"epoch (tau)  : {result.plan.tau * 1e6:.3f} us")
    print(f"horizon (K)  : {result.plan.num_epochs} epochs")
    print(f"solver time  : {result.solve_time:.3f} s")
    print(f"finish time  : {result.finish_time * 1e6:.3f} us")
    schedule = result.schedule
    print(f"schedule     : {schedule!r}")
    from repro.core.schedule import Schedule as _IntegralSchedule

    if args.events and isinstance(schedule, _IntegralSchedule):
        from repro.simulate import run_events

        report = run_events(schedule, result.topology_used,
                            result.demand_used)
        print(f"event finish : {report.finish_time * 1e6:.3f} us")
    if args.timeline and isinstance(schedule, _IntegralSchedule):
        from repro.analysis.timeline import render_timeline

        print(render_timeline(schedule))
    if args.export:
        from repro.msccl import to_msccl_xml

        work = result.hyper.topology if result.hyper else topo
        xml = to_msccl_xml(schedule, work, demand,
                           name=f"{args.topology}-{args.collective}",
                           collective=args.collective)
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(xml)
        print(f"exported     : {args.export}")
    if args.export_json:
        import json

        with open(args.export_json, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"exported     : {args.export_json}")
    if args.check:
        from repro.simulate import check_result

        report = check_result(result, config=config)
        _print_conformance(report)
        if not report.ok:
            return 1
    return 0


def _run_synth_pop(args: argparse.Namespace, topo, demand, config) -> int:
    """The `synth --partitions N` route: POP-partitioned LP solving."""
    from repro.core.pop import solve_lp_pop

    outcome = solve_lp_pop(topo, demand, config,
                           num_partitions=args.partitions,
                           jobs=args.jobs or None)
    print(f"topology     : {topo!r}")
    print(f"demand       : {demand!r}")
    print(f"method       : pop-lp ({args.partitions} partitions, "
          f"jobs={args.jobs or 'cpu-count'})")
    print(f"epoch (tau)  : {outcome.plan.tau * 1e6:.3f} us")
    print(f"horizon (K)  : {outcome.plan.num_epochs} epochs "
          f"({outcome.attempts} attempt(s))")
    print(f"solver time  : {outcome.parallel_solve_time:.3f} s critical "
          f"path ({outcome.serial_solve_time:.3f} s summed)")
    print(f"finish time  : {outcome.finish_time * 1e6:.3f} us")
    print(f"schedule     : {outcome.schedule!r}")
    if args.export_json:
        import json

        with open(args.export_json, "w", encoding="utf-8") as handle:
            json.dump(outcome.schedule.to_dict(), handle, indent=2)
        print(f"exported     : {args.export_json}")
    if args.check:
        from repro.simulate import check_flow

        report = check_flow(outcome.schedule, topo, demand, outcome.plan,
                            config=config)
        _print_conformance(report)
        if not report.ok:
            return 1
    return 0


def _print_conformance(report) -> None:
    """Render a ConformanceReport the way the synth/verify verbs share."""
    verdict = "conformant" if report.ok else "VIOLATIONS"
    print(f"conformance  : {verdict}")
    print(f"replayed     : {report.finish_time * 1e6:.3f} us")
    if report.claimed_finish_time is not None:
        print(f"claimed      : {report.claimed_finish_time * 1e6:.3f} us "
              f"(delta {report.finish_delta * 1e6:+.3f} us)")
    if report.utilization:
        peak = max(report.utilization.items(), key=lambda kv: kv[1])
        print(f"utilization  : peak {100 * peak[1]:.1f}% on link "
              f"{peak[0][0]}->{peak[0][1]}")
    for kind, count in sorted(report.counts_by_kind().items()):
        print(f"  {kind:<12}: {count}")
    for violation in report.violations[:10]:
        print(f"  ! {violation}")
    if len(report.violations) > 10:
        print(f"  ... and {len(report.violations) - 10} more")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import chunk_size_sweep
    from repro.solver import SolverOptions

    builder = _TOPOLOGIES[args.topology]
    topo = builder(args.chassis) if args.topology != "dgx1" else builder(1)
    demand = _COLLECTIVES[args.collective](topo.gpus, 1)
    sizes = [float(s) for s in args.chunk_sizes.split(",") if s.strip()]
    base = TecclConfig(
        chunk_bytes=sizes[0],
        solver=SolverOptions(mip_gap=args.mip_gap,
                             time_limit=args.time_limit))
    result = chunk_size_sweep(topo, demand, base, sizes)
    print(f"{'chunk bytes':>14} {'finish us':>12} {'solve s':>10} {'K':>5}")
    for point in result.points:
        if point.infeasible:
            print(f"{point.value:>14.4g} {'X':>12} {'X':>10} {'X':>5}")
        else:
            print(f"{point.value:>14.4g} {point.finish_time * 1e6:>12.3f} "
                  f"{point.solve_time:>10.3f} {point.num_epochs:>5}")
    best = result.best
    print(f"best chunk size: {best.value:g} bytes "
          f"({best.finish_time * 1e6:.3f} us)")
    return 0


def _build_instance(args: argparse.Namespace):
    """(topology, demand) from the shared --topology/--collective flags."""
    builder = _TOPOLOGIES[args.topology]
    size = getattr(args, "chassis", 1)
    topo = builder(size) if args.topology != "dgx1" else builder(1)
    chunks = getattr(args, "chunks", 1)
    demand = _COLLECTIVES[args.collective](topo.gpus, chunks)
    return topo, demand


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines import (blink_allgather, ring_allgather,
                                 shortest_path_schedule, tree_allgather)
    from repro.core.schedule import Schedule as _IntegralSchedule
    from repro.simulate import run_events
    from repro.solver import SolverOptions

    topo, demand = _build_instance(args)
    config = TecclConfig(
        chunk_bytes=args.chunk_size,
        solver=SolverOptions(time_limit=args.time_limit,
                             mip_gap=args.mip_gap))

    rows: list[tuple[str, float]] = []

    def measure(name: str, schedule) -> None:
        try:
            finish = run_events(schedule, topo, demand).finish_time
        except ReproError as exc:
            print(f"{name:<16} failed: {exc}", file=sys.stderr)
            return
        rows.append((name, finish))

    result = synthesize(topo, demand, config)
    if isinstance(result.schedule, _IntegralSchedule) and not result.hyper:
        measure("te-ccl", result.schedule)
    else:
        rows.append(("te-ccl", result.finish_time))

    measure("shortest-path", shortest_path_schedule(topo, demand, config))
    if args.collective == "allgather":
        try:
            measure("ring", ring_allgather(topo, config, args.chunks))
        except TopologyError as exc:
            print(f"{'ring':<16} skipped: {exc}", file=sys.stderr)
        measure("binomial-trees", tree_allgather(topo, config, args.chunks))
        measure("blink-trees", blink_allgather(topo, config, args.chunks))

    rows.sort(key=lambda r: r[1])
    best = rows[0][1]
    print(f"{'scheduler':<16} {'finish us':>12} {'vs best':>9}")
    for name, finish in rows:
        print(f"{name:<16} {finish * 1e6:>12.3f} {finish / best:>8.2f}x")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.schedule is not None:
        return _cmd_verify_schedule(args)
    from repro.errors import ServiceError
    from repro.msccl import verify_program

    if args.topology is None:
        raise ServiceError("--xml verification needs --topology")
    topo, demand = _build_instance(args)
    with open(args.xml, "r", encoding="utf-8") as handle:
        document = handle.read()
    report = verify_program(document, topo, demand,
                            chunk_bytes=args.chunk_size)
    print(f"program      : {args.xml}")
    print(f"instructions : {report.fired}/{report.total} fired")
    print(f"finish time  : {report.finish_time * 1e6:.3f} us")
    print("delivery     : all demanded chunks delivered")
    return 0


def _cmd_verify_schedule(args: argparse.Namespace) -> int:
    """Replay a serialised synthesis result through the conformance engine."""
    import json

    from repro.core.solve import SynthesisResult
    from repro.errors import ModelError
    from repro.simulate import check_result

    with open(args.schedule, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ModelError(
                f"invalid JSON in {args.schedule}: {exc}") from exc
    result = SynthesisResult.from_dict(document)
    report = check_result(result)
    print(f"schedule     : {args.schedule}")
    print(f"method       : {result.method.value}")
    _print_conformance(report)
    return 0 if report.ok else 1


def _cmd_impact(args: argparse.Namespace) -> int:
    from repro.failures import failure_impact
    from repro.solver import SolverOptions

    topo, demand = _build_instance(args)
    config = TecclConfig(
        chunk_bytes=args.chunk_size,
        solver=SolverOptions(time_limit=args.time_limit,
                             mip_gap=args.mip_gap))
    rows = failure_impact(topo, demand, config)
    print(f"{'failed link':<14} {'finish us':>12} {'slowdown':>9} "
          f"{'survivable':>11}")
    for row in rows[:args.top]:
        finish = ("inf" if row.finish_time == float("inf")
                  else f"{row.finish_time * 1e6:.3f}")
        print(f"{row.link[0]}->{row.link[1]:<11} {finish:>12} "
              f"{row.slowdown:>8.2f}x {str(row.survivable):>11}")
    return 0


def _cmd_upgrade(args: argparse.Namespace) -> int:
    from repro.solver import SolverOptions
    from repro.toposearch import rank_link_upgrades

    topo, demand = _build_instance(args)
    config = TecclConfig(
        chunk_bytes=args.chunk_size,
        solver=SolverOptions(time_limit=args.time_limit,
                             mip_gap=args.mip_gap))
    options = rank_link_upgrades(topo, demand, config, factor=args.factor)
    print(f"{'upgraded link':<14} {'finish us':>12} {'improvement':>12}")
    for option in options[:args.top]:
        print(f"{option.link[0]}->{option.link[1]:<11} "
              f"{option.finish_time * 1e6:>12.3f} "
              f"{100 * option.improvement:>11.2f}%")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.collectives import synthesize_workload
    from repro.solver import SolverOptions

    builder = _TOPOLOGIES[args.topology]
    topo = builder(args.chassis) if args.topology != "dgx1" else builder(1)
    job = _WORKLOADS[args.job](topo.gpus)
    config = TecclConfig(
        chunk_bytes=1.0,  # per-call sizes override this
        solver=SolverOptions(mip_gap=args.mip_gap,
                             time_limit=args.time_limit))
    report = synthesize_workload(topo, job, config)
    print(f"{'collective':<18} {'phase':<9} {'MB':>9} {'method':<6} "
          f"{'finish us':>11} {'reused':>7}")
    for item in report.scheduled:
        print(f"{item.call.name:<18} {item.call.phase:<9} "
              f"{item.call.total_bytes / 1e6:>9.2f} "
              f"{item.synthesis.method.value:<6} "
              f"{item.finish_time * 1e6:>11.2f} "
              f"{'yes' if item.reused else 'no':>7}")
    print(f"step total   : {report.total_time * 1e6:.2f} us")
    print(f"solver time  : {report.solve_time:.2f} s "
          f"({100 * report.dedup_ratio:.0f}% of calls reused a synthesis)")
    return 0


def _request_from_spec(spec: dict, index: int):
    """One serve-batch spec → PlanRequest.

    Two dialects: a *full* spec (``topology`` is a dict) is parsed as a
    serialised PlanRequest; a *compact* spec names a built-in topology and
    collective the way ``teccl synth`` flags do.
    """
    from repro.errors import ServiceError
    from repro.service import PlanRequest
    from repro.solver import SolverOptions

    if not isinstance(spec, dict):
        raise ServiceError(f"request #{index}: spec must be an object")
    if isinstance(spec.get("topology"), dict):
        return PlanRequest.from_dict(spec)
    try:
        topo_name = spec["topology"]
        builder = _TOPOLOGIES[topo_name]
    except KeyError:
        raise ServiceError(
            f"request #{index}: unknown topology "
            f"{spec.get('topology')!r}") from None
    topo = builder(int(spec.get("chassis", 1))) if topo_name != "dgx1" \
        else builder(1)
    collective = spec.get("collective", "allgather")
    if collective not in _COLLECTIVES:
        raise ServiceError(
            f"request #{index}: unknown collective {collective!r}")
    demand = _COLLECTIVES[collective](topo.gpus, int(spec.get("chunks", 1)))
    config = TecclConfig(
        chunk_bytes=float(spec.get("chunk_size", 1e6)),
        num_epochs=(None if spec.get("epochs") is None
                    else int(spec["epochs"])),
        epoch_mode=EpochMode(spec.get("epoch_mode",
                                      EpochMode.FASTEST_LINK.value)),
        switch_model=SwitchModel(spec.get("switch_model",
                                          SwitchModel.COPY.value)),
        solver=SolverOptions(
            time_limit=(None if spec.get("time_limit") is None
                        else float(spec["time_limit"])),
            mip_gap=float(spec.get("mip_gap", 0.0))))
    tag = str(spec.get("tag", f"{topo_name}/{collective}#{index}"))
    return PlanRequest(topology=topo, demand=demand, config=config,
                       method=Method(spec.get("method", "auto")), tag=tag)


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ServiceError
    from repro.obs import recorder as _flight
    from repro.service import Planner

    if args.flight_dir:
        _flight.set_dump_dir(args.flight_dir)
    try:
        with open(args.requests, "r", encoding="utf-8") as handle:
            specs = json.load(handle)
    except OSError as exc:
        raise ServiceError(f"cannot read --requests file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ServiceError(
            f"invalid JSON in {args.requests}: {exc}") from exc
    if not isinstance(specs, list):
        raise ServiceError("--requests file must hold a JSON list")
    requests = [_request_from_spec(spec, i) for i, spec in enumerate(specs)]
    with Planner(executor=args.pool_kind, max_workers=args.workers,
                 cache_dir=args.cache_dir, timeout=args.timeout,
                 check_conformance=args.check,
                 sink=args.trace) as planner:
        responses = planner.plan_batch(requests)
        stats = planner.stats()
        latency = planner.serve_latency()
        metrics = planner.metrics_snapshot() if args.metrics_file else None
    print(f"{'tag':<28} {'served':<9} {'finish us':>12} {'serve ms':>9}")
    failures = 0
    for response in responses:
        served = ("cache" if response.cache_hit
                  else "coalesce" if response.coalesced else "solve")
        if response.ok:
            finish = f"{response.result.finish_time * 1e6:.3f}"
        else:
            finish, served, failures = "X", "error", failures + 1
        print(f"{response.tag:<28} {served:<9} {finish:>12} "
              f"{response.serve_time * 1e3:>9.2f}")
        if not response.ok:
            print(f"  error: {response.error}", file=sys.stderr)
    print(f"requests     : {stats['requests']}")
    print(f"cache        : {stats['hits']} hits / {stats['misses']} misses")
    print(f"solves       : {stats['solves']} "
          f"({stats['coalesced']} coalesced)")
    if args.check:
        print(f"conformance  : {stats['conformance_checks']} checked / "
              f"{stats['conformance_failures']} failed")
    if latency["count"]:
        print(f"latency      : p50 {latency['p50'] * 1e3:.2f} ms / "
              f"p95 {latency['p95'] * 1e3:.2f} ms / "
              f"p99 {latency['p99'] * 1e3:.2f} ms")
    if metrics is not None:
        try:
            with open(args.metrics_file, "w", encoding="utf-8") as handle:
                json.dump(metrics, handle, indent=2)
        except OSError as exc:
            raise ServiceError(
                f"cannot write --metrics-file: {exc}") from exc
        print(f"metrics      : {args.metrics_file}")
    if args.responses_file:
        try:
            with open(args.responses_file, "w", encoding="utf-8") as handle:
                json.dump([r.to_dict() for r in responses], handle, indent=2)
        except OSError as exc:
            raise ServiceError(
                f"cannot write --responses-file: {exc}") from exc
        print(f"responses    : {args.responses_file}")
    if args.trace:
        print(f"trace        : {args.trace}")
    return 1 if failures else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ServiceError
    from repro.service import ScheduleCache

    # An inspection verb must not invent the directory it is inspecting
    # (ScheduleCache creates missing directories for serving use).
    if not Path(args.cache_dir).expanduser().is_dir():
        raise ServiceError(
            f"cache directory {args.cache_dir!r} does not exist")
    cache = ScheduleCache(directory=args.cache_dir)
    if args.action == "purge":
        print(f"purged       : {cache.purge()} entries")
        return 0
    entries = cache.entries()
    if args.action == "list":
        print(f"{'fingerprint':<16} {'bytes':>10} {'stale':>6}  meta")
        for entry in entries:
            print(f"{entry.fingerprint[:16]:<16} {entry.size_bytes:>10} "
                  f"{str(entry.stale):>6}  {entry.meta}")
        return 0
    total = sum(e.size_bytes for e in entries)
    stale = sum(1 for e in entries if e.stale)
    print(f"directory    : {args.cache_dir}")
    print(f"entries      : {len(entries)} ({stale} stale)")
    print(f"total bytes  : {total}")
    return 0


def _sweep_sizes(min_size: float, max_size: float) -> list[int]:
    """The 2^k buffer sizes between min and max, hccl_demo-style."""
    from repro.errors import ServiceError

    if min_size <= 0 or max_size < min_size:
        raise ServiceError("need 0 < --min-size <= --max-size")
    import math

    low = math.ceil(math.log2(min_size))
    high = math.floor(math.log2(max_size))
    if high < low:
        raise ServiceError(
            "no power-of-two size between --min-size and --max-size")
    return [2 ** k for k in range(low, high + 1)]


def _bench_sweep_config(topo, chunk_bytes: float, args) -> TecclConfig:
    """Per-size config with an α-guard epoch multiplier.

    Same guard idea as the benches' ``auto_epoch_multiplier`` (coarsen the
    grid when α would span more than ~10 epochs), computed on the raw
    fabric because the sweep solves under the COPY switch model — no
    hyper-edge rewrite is involved here.
    """
    from repro.solver import SolverOptions

    base_tau = chunk_bytes / topo.max_capacity
    alpha = topo.max_alpha
    multiplier = 1.0 if alpha <= 10 * base_tau else alpha / (10 * base_tau)
    return TecclConfig(
        chunk_bytes=chunk_bytes, epoch_multiplier=multiplier,
        solver=SolverOptions(mip_gap=args.mip_gap,
                             time_limit=args.time_limit))


def _cmd_bench_sweep(args: argparse.Namespace) -> int:
    """Message-size sweep reporting algbw/busbw per size (hccl_demo-style).

    algbw = buffer/finish; busbw applies the collective's traffic factor
    ((N−1)/N for allgather/alltoall, 2(N−1)/N for allreduce) so numbers
    are comparable across GPU counts — the convention NCCL/hccl_demo use.
    """
    import json
    import pathlib

    from repro.collectives import (allgather_plan, alltoall_plan,
                                   synthesize_allreduce)

    builder = _TOPOLOGIES[args.topology]
    topo = builder(args.chassis) if args.topology != "dgx1" else builder(1)
    n = topo.num_gpus
    rows = []
    print(f"{'size':>12} {'finish us':>12} {'algbw GB/s':>11} "
          f"{'busbw GB/s':>11} {'solve s':>8}")
    for size in _sweep_sizes(args.min_size, args.max_size):
        if args.collective == "allreduce":
            config = _bench_sweep_config(topo, size / n, args)
            outcome = synthesize_allreduce(topo, config)
            finish, solve = outcome.finish_time, outcome.solve_time
            busbw = outcome.bus_bandwidth(n, size)
        else:
            plan = (allgather_plan(n, size)
                    if args.collective == "allgather"
                    else alltoall_plan(n, size))
            demand = _COLLECTIVES[args.collective](topo.gpus, 1)
            config = _bench_sweep_config(topo, plan.chunk_bytes, args)
            result = synthesize(topo, demand, config)
            finish, solve = result.finish_time, result.solve_time
            busbw = (size / finish) * (n - 1) / n
        algbw = size / finish
        rows.append({"size_bytes": size, "finish_time": finish,
                     "algbw": algbw, "busbw": busbw, "solve_time": solve})
        print(f"{size:>12} {finish * 1e6:>12.3f} {algbw / 1e9:>11.3f} "
              f"{busbw / 1e9:>11.3f} {solve:>8.2f}")
    output = args.output
    if output is None:
        output = str(pathlib.Path("benchmarks") / "results"
                     / "BENCH_fleet_sweep.json")
    from repro.errors import ServiceError

    path = pathlib.Path(output)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "topology": topo.name, "gpus": n,
            "collective": args.collective, "rows": rows,
            "note": "hccl_demo-style sweep: algbw = buffer/finish, busbw "
                    "applies the collective's traffic factor",
        }, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ServiceError(f"cannot write --output: {exc}") from exc
    print(f"published    : {path}")
    return 0


def _parse_fleet_events(args: argparse.Namespace):
    """--degrade/--fail flags → scripted telemetry events."""
    from repro.errors import ServiceError
    from repro.fleet import LinkEvent

    events = []
    for spec in args.degrade:
        parts = spec.split(",")
        if len(parts) != 4:
            raise ServiceError(
                f"--degrade wants SRC,DST,FACTOR,AT, got {spec!r}")
        src, dst, factor, at = parts
        try:
            events.append(LinkEvent(at=float(at),
                                    link=(int(src), int(dst)),
                                    factor=float(factor)))
        except ValueError as exc:
            raise ServiceError(f"bad --degrade {spec!r}: {exc}") from exc
    for spec in args.fail:
        parts = spec.split(",")
        if len(parts) != 3:
            raise ServiceError(f"--fail wants SRC,DST,AT, got {spec!r}")
        src, dst, at = parts
        try:
            events.append(LinkEvent(at=float(at),
                                    link=(int(src), int(dst)), down=True))
        except ValueError as exc:
            raise ServiceError(f"bad --fail {spec!r}: {exc}") from exc
    return events


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.fleet import (FleetJob, FleetOrchestrator, SyntheticTelemetry,
                             WriteAheadLog, atomic_write_json)
    from repro.obs import recorder as _flight
    from repro.service import Planner
    from repro.simulate import DriftModel
    from repro.solver import SolverOptions

    if args.recover and not args.wal:
        raise ServiceError("--recover needs --wal (nothing to recover from)")
    if args.flight_dir:
        _flight.set_dump_dir(args.flight_dir)
        if _flight.install_signal_dump():
            print(f"flight       : {args.flight_dir} "
                  "(SIGUSR2 dumps the ring)")
        else:
            print(f"flight       : {args.flight_dir}")
    builder = _TOPOLOGIES[args.topology]
    topo = builder(args.chassis) if args.topology != "dgx1" else builder(1)
    events = _parse_fleet_events(args)
    job_names = [name.strip() for name in args.jobs.split(",")
                 if name.strip()]
    for name in job_names:
        if name not in _COLLECTIVES:
            raise ServiceError(f"unknown collective {name!r} in --jobs")
    source = SyntheticTelemetry(
        topo, events=events, seed=args.seed,
        drift=DriftModel(sigma=args.drift) if args.drift > 0 else None)
    config = TecclConfig(
        chunk_bytes=args.chunk_size,
        solver=SolverOptions(mip_gap=args.mip_gap,
                             time_limit=args.time_limit))
    wal = None
    if args.wal:
        wal = WriteAheadLog(args.wal)
        generation = wal.attach_lease(takeover=args.takeover)
        print(f"wal          : {args.wal} (generation {generation})")
    with Planner(executor=args.pool_kind, sink=args.trace) as planner:
        fleet = FleetOrchestrator(topo, source, planner, wal=wal)
        if args.recover:
            if wal.has_state():
                provenance = fleet.recover()
                print(f"recovered    : {provenance['entries_recovered']} "
                      f"schedule(s), {len(provenance['entries_dropped'])} "
                      f"dropped, {provenance['steps_completed']} steps "
                      "already completed")
            else:
                print("recovered    : nothing durable on disk; "
                      "starting fresh")
        recovered_jobs = set(fleet.controller.registry.active_jobs())
        admitted_jobs = set(fleet.controller.jobs)
        for index, name in enumerate(job_names):
            job_name = f"{name}#{index}"
            if job_name in recovered_jobs:
                entry = fleet.controller.registry.active(job_name)
                print(f"resumed      : {job_name} "
                      f"(finish {entry.result.finish_time * 1e6:.3f} us, "
                      "recovered from WAL)")
                continue
            if job_name in admitted_jobs:
                # recovered, but the incumbent was dropped at conformance
                # re-vetting: the job is already admitted (re-admission
                # would refuse), so plan it fresh instead
                entry = fleet.plan_missing([job_name])[job_name]
                print(f"replanned    : {job_name} "
                      f"(finish {entry.result.finish_time * 1e6:.3f} us, "
                      "recovered incumbent dropped)")
                continue
            job = FleetJob(name=job_name,
                           demand=_COLLECTIVES[name](topo.gpus, args.chunks),
                           config=config)
            entry = fleet.admit(job)
            print(f"admitted     : {job.name} "
                  f"(finish {entry.result.finish_time * 1e6:.3f} us, "
                  f"method {entry.result.method.value})")
        # recovered jobs outside --jobs whose incumbent was dropped would
        # otherwise stay scheduleless forever (the adaptation loop only
        # replans incumbents)
        for job_name, entry in sorted(fleet.plan_missing().items()):
            print(f"replanned    : {job_name} "
                  f"(finish {entry.result.finish_time * 1e6:.3f} us, "
                  "recovered incumbent dropped)")
        for _ in range(args.steps):
            for decision in fleet.step():
                print(f"  {decision}")
        status = fleet.status()
        stats = status["stats"]
    if wal is not None:
        wal.close()
    fabric = status["fabric"]
    print(f"fabric       : {fabric['health']['healthy']} healthy / "
          f"{fabric['health']['degraded']} degraded / "
          f"{fabric['health']['down']} down")
    print(f"transitions  : {stats['transitions']}")
    print(f"adaptations  : {stats['replans']} replans, {stats['kept']} "
          f"kept, {stats['rollbacks']} rollbacks, {stats['failed']} failed")
    print(f"solve budget : {stats['adaptation_solve_time']:.3f} s "
          "spent adapting")
    for doc in status.get("alerts", []):
        print(f"  alert      : [{doc.get('severity', '?')}] "
              f"{doc.get('name')}: {doc.get('metric')} = "
              f"{doc.get('value', 0.0):.6g} {doc.get('op')} "
              f"{doc.get('threshold', 0.0):g}")
    if args.trace:
        print(f"trace        : {args.trace}")
    if args.status_file:
        try:
            # atomic: a concurrent `teccl fleet status` (or a crash
            # mid-dump) sees the previous complete file, never half a one
            atomic_write_json(args.status_file, status)
        except OSError as exc:
            raise ServiceError(
                f"cannot write --status-file: {exc}") from exc
        print(f"status       : {args.status_file}")
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ServiceError

    try:
        with open(args.status_file, "r", encoding="utf-8") as handle:
            status = json.load(handle)
    except OSError as exc:
        raise ServiceError(f"cannot read status file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ServiceError(
            f"invalid JSON in {args.status_file}: {exc}") from exc
    recovery = status.get("recovery")
    if recovery:
        dropped = recovery.get("entries_dropped", [])
        print(f"recovery     : generation {recovery.get('generation')}, "
              f"{recovery.get('entries_recovered', 0)} schedule(s) "
              f"rehydrated, {recovery.get('steps_completed', 0)} steps "
              "resumed"
              + (" (from snapshot)" if recovery.get("snapshot") else ""))
        for drop in dropped:
            print(f"  dropped    : {drop.get('job')} seq "
                  f"{drop.get('seq')} ({drop.get('reason')})")
    wal = status.get("wal")
    if wal:
        print(f"wal          : {wal.get('path')} "
              f"(generation {wal.get('generation')}, "
              f"{wal.get('records_written', 0)} records, "
              f"{wal.get('compactions', 0)} compactions"
              + (", FENCED" if wal.get("fenced") else "") + ")")
    fabric = status.get("fabric", {})
    health = fabric.get("health", {})
    print(f"fabric       : {fabric.get('topology')} "
          f"({fabric.get('links')} links)")
    print(f"health       : {health.get('healthy', 0)} healthy / "
          f"{health.get('degraded', 0)} degraded / "
          f"{health.get('down', 0)} down")
    for link, factor in sorted(fabric.get("degraded", {}).items()):
        print(f"  degraded   : {link} at {100 * factor:.0f}% capacity")
    for link in fabric.get("down", []):
        print(f"  down       : {link}")
    active = status.get("registry", {}).get("active", {})
    print(f"{'job':<20} {'status':<8} {'finish us':>12} {'conformant':>11}")
    for name, entry in sorted(active.items()):
        print(f"{name:<20} {entry['status']:<8} "
              f"{entry['finish_time'] * 1e6:>12.3f} "
              f"{str(entry['conformance_ok']):>11}")
    stats = status.get("stats", {})
    print(f"adaptations  : {stats.get('replans', 0)} replans, "
          f"{stats.get('kept', 0)} kept, "
          f"{stats.get('rollbacks', 0)} rollbacks")
    alerts = status.get("alerts", [])
    if alerts:
        print(f"alerts       : {len(alerts)} firing")
        for doc in alerts:
            print(f"  [{doc.get('severity', '?'):<8}] {doc.get('name')}: "
                  f"{doc.get('metric')} = {doc.get('value', 0.0):.6g} "
                  f"{doc.get('op')} {doc.get('threshold', 0.0):g}")
    latency = status.get("serve_latency", {})
    if latency.get("count"):
        print(f"serve latency: p50 {latency['p50'] * 1e3:.2f} ms / "
              f"p95 {latency['p95'] * 1e3:.2f} ms / "
              f"p99 {latency['p99'] * 1e3:.2f} ms "
              f"({latency['count']} serves)")
    for line in status.get("decisions", []):
        print(f"  {line}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.errors import ObservabilityError

    if args.obs_command == "summary":
        summary = obs.summarize(obs.read_events(args.trace))
        print(obs.format_summary(summary, top=args.top))
        return 0
    if args.obs_command == "export-trace":
        events = obs.read_events(args.trace)
        path = obs.write_chrome_trace(events, args.output)
        spans = sum(1 for e in events if e.get("kind") == "span")
        print(f"exported     : {path} ({spans} spans; load in "
              "chrome://tracing or https://ui.perfetto.dev)")
        return 0
    if args.obs_command == "dump":
        return _cmd_obs_dump(args)
    if args.obs_command == "alerts":
        return _cmd_obs_alerts(args)
    # metrics: render a snapshot written by `serve-batch --metrics-file`
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except OSError as exc:
        raise ObservabilityError(
            f"cannot read metrics file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            f"invalid JSON in {args.file}: {exc}") from exc
    if not isinstance(snapshot, dict):
        raise ObservabilityError(
            "metrics file must hold a JSON object (registry snapshot)")
    if args.metrics_format == "json":
        print(json.dumps(snapshot, indent=2))
    elif args.metrics_format == "prometheus":
        print(obs.prometheus_from_snapshot(snapshot), end="")
    else:
        print(f"{'metric':<44} {'type':<10} value")
        for name in sorted(snapshot):
            entry = snapshot[name]
            kind = entry.get("type", "?")
            if kind == "histogram":
                value = (f"count {entry.get('count', 0)} "
                         f"p50 {entry.get('p50', 0.0):.6g} "
                         f"p95 {entry.get('p95', 0.0):.6g} "
                         f"p99 {entry.get('p99', 0.0):.6g}")
            else:
                value = f"{entry.get('value', 0.0):g}"
            print(f"{name:<44} {kind:<10} {value}")
    return 0


def _cmd_obs_dump(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.errors import ObservabilityError

    if (args.file is None) == (args.output is None):
        raise ObservabilityError(
            "obs dump needs exactly one of --file (render an existing "
            "dump) or --output (dump this process's ring)")
    if args.output is not None:
        path = obs.get_recorder().dump(args.output, reason="manual")
        print(f"dumped       : {path}")
        events = obs.read_dump(path)
    else:
        events = obs.read_dump(args.file)
    if args.as_json:
        for event in events[-args.limit:] if args.limit else events:
            print(json.dumps(event, sort_keys=True))
    else:
        print(obs.format_flight(events, limit=args.limit))
    return 0


def _load_json(path: str, what: str) -> object:
    import json

    from repro.errors import ObservabilityError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ObservabilityError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"invalid JSON in {path}: {exc}") from exc


def _cmd_obs_alerts(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ObservabilityError
    from repro.obs.alerts import AlertEngine, AlertRule

    if args.status_file is not None:
        status = _load_json(args.status_file, "status file")
        if not isinstance(status, dict):
            raise ObservabilityError("status file must hold a JSON object")
        firing = status.get("alerts", [])
        if args.as_json:
            print(json.dumps(firing, indent=2))
        elif not firing:
            print("alerts       : none firing")
        else:
            for doc in firing:
                print(f"  [{doc.get('severity', '?'):<8}] "
                      f"{doc.get('name')}: {doc.get('metric')} = "
                      f"{doc.get('value', 0.0):.6g} {doc.get('op')} "
                      f"{doc.get('threshold', 0.0):g}")
        return 1 if firing else 0
    snapshot = _load_json(args.metrics_file, "metrics file")
    if not isinstance(snapshot, dict):
        raise ObservabilityError(
            "metrics file must hold a JSON object (registry snapshot)")
    rules = None
    if args.rules:
        docs = _load_json(args.rules, "rules file")
        if not isinstance(docs, list):
            raise ObservabilityError("--rules file must hold a JSON list")
        rules = [AlertRule.from_dict(doc) for doc in docs]
    engine = AlertEngine(rules)
    firing = engine.evaluate(snapshot)
    if args.as_json:
        print(json.dumps([alert.to_dict() for alert in firing], indent=2))
    else:
        print(f"rules        : {len(engine.rules)} evaluated, "
              f"{len(firing)} firing")
        for alert in firing:
            print(f"  {alert.render()}")
    return 1 if firing else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.errors import ObservabilityError
    from repro.obs.explain import ExplainRecord

    if args.last:
        docs = [obs.load_last_explain(args.flight_dir)]
    else:
        loaded = _load_json(args.response, "response file")
        # accept a bare explain record, one PlanResponse document, or the
        # JSON list `serve-batch --responses-file` writes
        responses = loaded if isinstance(loaded, list) else [loaded]
        docs = []
        for response in responses:
            if not isinstance(response, dict):
                raise ObservabilityError(
                    "response file must hold PlanResponse JSON objects")
            doc = response.get("explain", response)
            if doc is None:
                raise ObservabilityError(
                    "response carries no explain record (served by an "
                    "older planner?)")
            docs.append(doc)
    records = [ExplainRecord.from_dict(doc) for doc in docs]
    if args.as_json:
        print(json.dumps([record.to_dict() for record in records],
                         indent=2))
    else:
        print("\n".join(record.render() for record in records))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "topologies": lambda: _cmd_topologies(),
        "synth": lambda: _cmd_synth(args),
        "sweep": lambda: _cmd_sweep(args),
        "compare": lambda: _cmd_compare(args),
        "verify": lambda: _cmd_verify(args),
        "impact": lambda: _cmd_impact(args),
        "upgrade": lambda: _cmd_upgrade(args),
        "workload": lambda: _cmd_workload(args),
        "serve-batch": lambda: _cmd_serve_batch(args),
        "cache": lambda: _cmd_cache(args),
        "bench-sweep": lambda: _cmd_bench_sweep(args),
        "fleet": lambda: (_cmd_fleet_run(args)
                          if args.fleet_command == "run"
                          else _cmd_fleet_status(args)),
        "obs": lambda: _cmd_obs(args),
        "explain": lambda: _cmd_explain(args),
    }
    try:
        return handlers[args.command]()
    except ReproError as exc:
        # post-incident context: when a flight dir is configured the ring
        # around the failure lands on disk (quiet no-op otherwise)
        from repro.obs import recorder as _flight
        _flight.auto_dump("error")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `teccl obs summary | head`);
        # park stdout on devnull so the interpreter's shutdown flush
        # doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
