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
import contextlib
import json
import math
import os
import pathlib
import sys

# ``import repro`` has already loaded every module named here; only
# ``repro.fleet`` is imported lazily, where its verbs need it
from repro import collectives, obs, topology
from repro.analysis import chunk_size_sweep, render_timeline
from repro.baselines import (blink_allgather, ring_allgather,
                             shortest_path_schedule, tree_allgather)
from repro.core import TecclConfig, solve_lp_pop
from repro.core.config import EpochMode, SwitchModel
from repro.core.schedule import Schedule as _IntegralSchedule
from repro.core.solve import Method, SynthesisResult, synthesize
from repro.errors import (ModelError, ObservabilityError, ReproError,
                          ServiceError, TopologyError)
from repro.failures import failure_impact
from repro.msccl import to_msccl_xml, verify_program
from repro.obs import AlertEngine, AlertRule, ExplainRecord
from repro.obs import recorder as _flight
from repro.service import Planner, PlanRequest, ScheduleCache
from repro.simulate import DriftModel, check_flow, check_result, run_events
from repro.solver import SolverOptions
from repro.toposearch import rank_link_upgrades

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
    "allgather": collectives.allgather,
    "alltoall": collectives.alltoall,
    "broadcast": lambda gpus, chunks: collectives.broadcast(
        gpus[0], gpus[1:], chunks),
    "reducescatter": collectives.reduce_scatter,
}

_WORKLOADS = {
    "bert": collectives.bert_like_job,
    "dlrm": collectives.dlrm_like_job,
    "moe": lambda gpus: collectives.moe_job(gpus, skew=0.5),
    "pipeline": collectives.pipeline_job,
}


# The instance flags, stated once; a verb names the ones it carries.
_INSTANCE_FLAGS = {
    "--topology": dict(choices=sorted(_TOPOLOGIES), required=True),
    "--chassis": dict(type=int, default=1),
    "--collective": dict(choices=sorted(_COLLECTIVES), default="allgather"),
    "--chunks": dict(type=int, default=1),
    "--chunk-size": dict(type=float, default=1e6),
}


def _instance_flags(*flags: str, **overrides: dict
                    ) -> argparse.ArgumentParser:
    """Parent parser: ``--topology --chassis`` plus the named instance flags.

    ``overrides`` (by dest) restate one flag's keywords for one verb. Built
    per verb, like :func:`_solver_flags`: argparse shares Action objects
    between parent and child, so one instance cannot hold per-verb defaults.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for flag in ("--topology", "--chassis", *flags):
        dest = flag[2:].replace("-", "_")
        parent.add_argument(
            flag, **{**_INSTANCE_FLAGS[flag], **overrides.get(dest, {})})
    return parent


def _solver_flags(*, mip_gap: float, time_limit: float | None
                  ) -> argparse.ArgumentParser:
    """Parent parser: the solver flags, with one verb's defaults."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--mip-gap", type=float, default=mip_gap)
    parent.add_argument("--time-limit", type=float, default=time_limit)
    return parent


def _request_flags() -> tuple[argparse.ArgumentParser, ...]:
    """The flag groups that state one plan request: ``synth``'s parents,
    and — read off the same Action objects by :func:`_request_from_spec` — the
    serve-batch compact-spec vocabulary, so the two cannot drift."""
    formulation = argparse.ArgumentParser(add_help=False)
    formulation.add_argument("--epochs", type=int, default=None,
                             help="horizon K (default: auto upper bound)")
    formulation.add_argument("--method",
                             choices=[m.value for m in Method],
                             default="auto")
    formulation.add_argument("--epoch-mode",
                             choices=[m.value for m in EpochMode],
                             default=EpochMode.FASTEST_LINK.value)
    formulation.add_argument("--switch-model",
                             choices=[m.value for m in SwitchModel],
                             default=SwitchModel.COPY.value)
    formulation.add_argument("--symmetry", choices=["auto", "on", "off"],
                             default="auto",
                             help="quotient the solve by verified fabric "
                                  "automorphisms (auto: large models only; "
                                  "results are always conformance-vetted "
                                  "with cold fallback, so this only affects "
                                  "speed)")
    return (
        _instance_flags(
            "--collective", "--chunks", "--chunk-size",
            chunks={"help": "chunks per source (or per pair for alltoall)"},
            chunk_size={"help": "bytes per chunk"}),
        _solver_flags(mip_gap=0.0, time_limit=None),
        formulation)


_REQUEST_FLAGS = _request_flags()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teccl",
        description="TE-CCL: collective communication schedule synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(group, name: str, handler, *parents, **kwargs):
        """One verb = its flag groups + the handler ``main`` dispatches to."""
        leaf = group.add_parser(name, parents=parents, **kwargs)
        leaf.set_defaults(handler=handler)
        return leaf

    verb(sub, "topologies", _cmd_topologies, help="list built-in topologies")

    synth = verb(sub, "synth", _cmd_synth, *_REQUEST_FLAGS,
                 help="synthesize a schedule")
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

    sweep = verb(sub, "sweep", _cmd_sweep, _instance_flags("--collective"),
                 _solver_flags(mip_gap=0.1, time_limit=60.0),
                 help="sweep chunk sizes (§5)")
    sweep.add_argument("--chunk-sizes", type=str, required=True,
                       help="comma-separated byte counts, e.g. 1e5,1e6,1e7")

    verb(sub, "compare", _cmd_compare,
         _instance_flags("--collective", "--chunks", "--chunk-size"),
         _solver_flags(mip_gap=0.1, time_limit=60.0),
         help="TE-CCL vs baselines on one collective")

    verify_cmd = verb(
        sub, "verify", _cmd_verify,
        _instance_flags(
            "--collective", "--chunks", "--chunk-size",
            topology={"required": False, "default": None,
                      "help": "required with --xml; ignored with "
                              "--schedule (the document carries its own)"}),
        help="verify a schedule: conformance-replay a synthesis result "
             "(--schedule) or execute an exported MSCCL program (--xml)")
    what = verify_cmd.add_mutually_exclusive_group(required=True)
    what.add_argument("--xml", metavar="FILE", default=None,
                      help="exported MSCCL program (runs the interpreter)")
    what.add_argument("--schedule", metavar="FILE", default=None,
                      help="synthesis-result JSON (runs the conformance "
                           "engine; see `teccl synth --export-json`)")

    impact = verb(sub, "impact", _cmd_impact,
                  _instance_flags("--collective", "--chunk-size"),
                  _solver_flags(mip_gap=0.1, time_limit=30.0),
                  help="per-link failure criticality (re-synthesis cost)")
    impact.add_argument("--top", type=int, default=10)

    upgrade = verb(sub, "upgrade", _cmd_upgrade,
                   _instance_flags("--collective", "--chunk-size"),
                   _solver_flags(mip_gap=0.1, time_limit=30.0),
                   help="what-if link upgrades (toposearch)")
    upgrade.add_argument("--factor", type=float, default=2.0)
    upgrade.add_argument("--top", type=int, default=10)

    workload = verb(sub, "workload", _cmd_workload, _instance_flags(),
                    _solver_flags(mip_gap=0.2, time_limit=30.0),
                    help="schedule a whole training step's communication")
    workload.add_argument("--job", choices=sorted(_WORKLOADS),
                          required=True)

    serve = verb(
        sub, "serve-batch", _cmd_serve_batch,
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

    explain = verb(
        sub, "explain", _cmd_explain,
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

    cache = verb(sub, "cache", _cmd_cache,
                 help="inspect or purge an on-disk schedule cache")
    cache.add_argument("--dir", dest="cache_dir", required=True)
    cache.add_argument("--action", choices=["stats", "list", "purge"],
                       default="stats")

    bench_sweep = verb(
        sub, "bench-sweep", _cmd_bench_sweep,
        _instance_flags("--collective", collective={
            "choices": ["allgather", "alltoall", "allreduce"]}),
        _solver_flags(mip_gap=0.1, time_limit=30.0),
        help="hccl_demo-style message-size sweep: algbw/busbw per 2^k size")
    bench_sweep.add_argument("--min-size", type=float, default=4096,
                             help="smallest buffer in bytes (rounded up to "
                                  "a power of two)")
    bench_sweep.add_argument("--max-size", type=float, default=4194304,
                             help="largest buffer in bytes")
    bench_sweep.add_argument("--output", default=None,
                             help="JSON results file (default: "
                                  "benchmarks/results/BENCH_fleet_sweep"
                                  ".json when run from the repo root)")

    fleet_sub = sub.add_parser(
        "fleet", help="fleet control plane: telemetry-driven adaptation"
    ).add_subparsers(dest="fleet_command", required=True)

    fleet_run = verb(
        fleet_sub, "run", _cmd_fleet_run,
        _instance_flags("--chunks", "--chunk-size"),
        _solver_flags(mip_gap=0.1, time_limit=30.0),
        help="run the adaptation daemon over a seeded scenario")
    fleet_run.add_argument("--jobs", default="alltoall",
                           help="comma-separated collectives, one fleet "
                                "job each (e.g. alltoall,allgather)")
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

    fleet_status = verb(
        fleet_sub, "status", _cmd_fleet_status,
        help="render a status file written by `teccl fleet run`")
    fleet_status.add_argument("--status-file", required=True)

    obs_sub = sub.add_parser(
        "obs", help="observability: inspect traces and metrics snapshots"
    ).add_subparsers(dest="obs_command", required=True)

    obs_summary = verb(
        obs_sub, "summary", _cmd_obs_summary,
        help="per-phase totals, self time, and leaf coverage of a trace")
    obs_summary.add_argument("--trace", metavar="FILE", required=True,
                             help="JSONL trace (see `synth --trace`)")
    obs_summary.add_argument("--top", type=int, default=20,
                             help="phases to show (by total time)")

    obs_export = verb(
        obs_sub, "export-trace", _cmd_obs_export_trace,
        help="convert a JSONL trace to Chrome trace-event JSON "
             "(loadable in chrome://tracing or https://ui.perfetto.dev)")
    obs_export.add_argument("--trace", metavar="FILE", required=True)
    obs_export.add_argument("--output", metavar="FILE", required=True)

    obs_metrics = verb(
        obs_sub, "metrics", _cmd_obs_metrics,
        help="render a metrics snapshot (see `serve-batch --metrics-file`)")
    obs_metrics.add_argument("--file", metavar="FILE", required=True,
                             help="metrics snapshot JSON")
    obs_metrics.add_argument("--format", dest="metrics_format",
                             choices=["table", "prometheus", "json"],
                             default="table")

    obs_dump = verb(
        obs_sub, "dump", _cmd_obs_dump,
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

    obs_alerts = verb(
        obs_sub, "alerts", _cmd_obs_alerts,
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


def _instance(ns: argparse.Namespace):
    """``(topology, demand)`` from the instance flags a verb carries;
    ``demand`` is ``None`` where ``--collective`` names no single demand
    (absent on ``workload``/``fleet run``; bench-sweep's ``allreduce``)."""
    topo = _TOPOLOGIES[ns.topology](ns.chassis)
    build = _COLLECTIVES.get(getattr(ns, "collective", None))
    if build is None:
        return topo, None
    return topo, build(topo.gpus, getattr(ns, "chunks", 1))


def _config(ns: argparse.Namespace, **fields) -> TecclConfig:
    """The config a verb's solver flags (on ``synth`` and in a compact
    spec: formulation flags too) state; ``fields`` are the verb's own
    (``chunk_bytes`` where it is not ``--chunk-size``)."""
    solver = {"time_limit": ns.time_limit, "mip_gap": ns.mip_gap}
    if hasattr(ns, "symmetry"):
        solver["symmetry"] = ns.symmetry
        fields.update(num_epochs=ns.epochs,
                      epoch_mode=EpochMode(ns.epoch_mode),
                      switch_model=SwitchModel(ns.switch_model))
    if "chunk_bytes" not in fields:
        fields["chunk_bytes"] = ns.chunk_size
    return TecclConfig(solver=SolverOptions(**solver), **fields)


def _read_json(path: str, what: str, error=ServiceError):
    """Parse a JSON file; unreadable or malformed is the verb's typed error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON in {path}: {exc}") from exc


def _write_json(path: str, doc, flag: str) -> None:
    """Write ``doc`` as indented JSON; an OS failure names the ``flag``."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
    except OSError as exc:
        raise ServiceError(f"cannot write {flag}: {exc}") from exc


def _alert_line(doc: dict, width: int = 0) -> str:
    """One recorded alert (a status file's ``alerts`` entry), rendered."""
    return (f"[{doc.get('severity', '?'):<{width}}] {doc.get('name')}: "
            f"{doc.get('metric')} = {doc.get('value', 0.0):.6g} "
            f"{doc.get('op')} {doc.get('threshold', 0.0):g}")


@contextlib.contextmanager
def _tracing(path: str | None):
    """The one tracer lifetime: ``--trace FILE`` turns the process-global
    tracer on for a verb's body (no constructor below takes a sink)."""
    if not path:
        yield
        return
    obs.configure(path)
    try:
        yield
    finally:
        obs.disable()


def _cmd_topologies(args: argparse.Namespace) -> int:
    for name, builder in sorted(_TOPOLOGIES.items()):
        print(f"{name:<10} e.g. {builder(2)!r}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    with _tracing(args.trace):
        code = _run_synth(args)
    if args.trace:
        summary = obs.summarize(obs.read_events(args.trace))
        print(f"trace        : {args.trace} ({summary['num_spans']} spans, "
              f"leaf coverage {100 * summary['coverage']:.1f}%)")
    return code


def _run_synth(args: argparse.Namespace) -> int:
    topo, demand = _instance(args)
    config = _config(args)
    if args.partitions:
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
    if args.events and isinstance(schedule, _IntegralSchedule):
        report = run_events(schedule, result.topology_used,
                            result.demand_used)
        print(f"event finish : {report.finish_time * 1e6:.3f} us")
    if args.timeline and isinstance(schedule, _IntegralSchedule):
        print(render_timeline(schedule))
    if args.export:
        work = result.hyper.topology if result.hyper else topo
        xml = to_msccl_xml(schedule, work, demand,
                           name=f"{args.topology}-{args.collective}",
                           collective=args.collective)
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(xml)
        print(f"exported     : {args.export}")
    return _export_and_check(
        args, result, lambda: check_result(result, config=config))


def _run_synth_pop(args: argparse.Namespace, topo, demand, config) -> int:
    """The `synth --partitions N` route: POP-partitioned LP solving."""
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
    return _export_and_check(
        args, outcome.schedule,
        lambda: check_flow(outcome.schedule, topo, demand, outcome.plan,
                           config=config))


def _export_and_check(args: argparse.Namespace, document, replay) -> int:
    """``synth``'s ``--export-json`` / ``--check`` tail, for either route."""
    if args.export_json:
        _write_json(args.export_json, document.to_dict(), "--export-json")
        print(f"exported     : {args.export_json}")
    if args.check:
        report = replay()
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
    topo, demand = _instance(args)
    sizes = [float(s) for s in args.chunk_sizes.split(",") if s.strip()]
    result = chunk_size_sweep(topo, demand,
                              _config(args, chunk_bytes=sizes[0]), sizes)
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


def _cmd_compare(args: argparse.Namespace) -> int:
    topo, demand = _instance(args)
    config = _config(args)

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
    if args.topology is None:
        raise ServiceError("--xml verification needs --topology")
    topo, demand = _instance(args)
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
    result = SynthesisResult.from_dict(
        _read_json(args.schedule, "--schedule file", ModelError))
    report = check_result(result)
    print(f"schedule     : {args.schedule}")
    print(f"method       : {result.method.value}")
    _print_conformance(report)
    return 0 if report.ok else 1


def _cmd_impact(args: argparse.Namespace) -> int:
    rows = failure_impact(*_instance(args), _config(args))
    print(f"{'failed link':<14} {'finish us':>12} {'slowdown':>9} "
          f"{'survivable':>11}")
    for row in rows[:args.top]:
        finish = ("inf" if row.finish_time == float("inf")
                  else f"{row.finish_time * 1e6:.3f}")
        print(f"{row.link[0]}->{row.link[1]:<11} {finish:>12} "
              f"{row.slowdown:>8.2f}x {str(row.survivable):>11}")
    return 0


def _cmd_upgrade(args: argparse.Namespace) -> int:
    options = rank_link_upgrades(*_instance(args), _config(args),
                                 factor=args.factor)
    print(f"{'upgraded link':<14} {'finish us':>12} {'improvement':>12}")
    for option in options[:args.top]:
        print(f"{option.link[0]}->{option.link[1]:<11} "
              f"{option.finish_time * 1e6:>12.3f} "
              f"{100 * option.improvement:>11.2f}%")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    topo, _ = _instance(args)
    report = collectives.synthesize_workload(
        topo, _WORKLOADS[args.job](topo.gpus),
        _config(args, chunk_bytes=1.0))  # per-call sizes override this
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
    serialised PlanRequest; a *compact* spec is the ``teccl synth`` request
    flags as a JSON object — keys are the dests of ``_REQUEST_FLAGS`` (plus
    ``tag``), values take the flag's own type, choices and default. A spec
    is outside input: whatever argparse would refuse on the command line
    is a :class:`ServiceError` naming the request here.
    """
    if not isinstance(spec, dict):
        raise ServiceError(f"request #{index}: spec must be an object")
    if isinstance(spec.get("topology"), dict):
        return PlanRequest.from_dict(spec)
    flags = {action.dest: action
             for group in _REQUEST_FLAGS for action in group._actions}
    unknown = sorted(set(spec) - set(flags) - {"tag"})
    if unknown:
        raise ServiceError(
            f"request #{index}: unknown key(s) {', '.join(unknown)} (a "
            f"compact spec takes {', '.join(flags)}, tag)")
    ns = argparse.Namespace()
    for key, flag in flags.items():
        value = spec.get(key)
        if value is None:
            value = flag.default
        elif flag.type is not None:
            try:
                value = flag.type(value)
            except (TypeError, ValueError):
                raise ServiceError(
                    f"request #{index}: invalid {flag.type.__name__} value "
                    f"for {key}: {value!r}") from None
        if flag.choices is not None and value not in flag.choices:
            raise ServiceError(f"request #{index}: unknown {key} {value!r}")
        setattr(ns, key, value)
    topo, demand = _instance(ns)
    tag = str(spec.get("tag", f"{ns.topology}/{ns.collective}#{index}"))
    return PlanRequest(topology=topo, demand=demand, config=_config(ns),
                       method=Method(ns.method), tag=tag)


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    if args.flight_dir:
        _flight.set_dump_dir(args.flight_dir)
    specs = _read_json(args.requests, "--requests file")
    if not isinstance(specs, list):
        raise ServiceError("--requests file must hold a JSON list")
    requests = [_request_from_spec(spec, i) for i, spec in enumerate(specs)]
    with _tracing(args.trace), \
            Planner(executor=args.pool_kind, max_workers=args.workers,
                    cache_dir=args.cache_dir, timeout=args.timeout,
                    check_conformance=args.check) as planner:
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
        _write_json(args.metrics_file, metrics, "--metrics-file")
        print(f"metrics      : {args.metrics_file}")
    if args.responses_file:
        _write_json(args.responses_file, [r.to_dict() for r in responses],
                    "--responses-file")
        print(f"responses    : {args.responses_file}")
    if args.trace:
        print(f"trace        : {args.trace}")
    return 1 if failures else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    # An inspection verb must not invent the directory it is inspecting
    # (ScheduleCache creates missing directories for serving use).
    if not pathlib.Path(args.cache_dir).expanduser().is_dir():
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
    if min_size <= 0 or max_size < min_size:
        raise ServiceError("need 0 < --min-size <= --max-size")
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
    base_tau = chunk_bytes / topo.max_capacity
    alpha = topo.max_alpha
    multiplier = 1.0 if alpha <= 10 * base_tau else alpha / (10 * base_tau)
    return _config(args, chunk_bytes=chunk_bytes,
                   epoch_multiplier=multiplier)


def _cmd_bench_sweep(args: argparse.Namespace) -> int:
    """Message-size sweep reporting algbw/busbw per size (hccl_demo-style).

    algbw = buffer/finish; busbw applies the collective's traffic factor
    ((N−1)/N for allgather/alltoall, 2(N−1)/N for allreduce) so numbers
    are comparable across GPU counts — the convention NCCL/hccl_demo use.
    """
    topo, demand = _instance(args)
    n = topo.num_gpus
    rows = []
    print(f"{'size':>12} {'finish us':>12} {'algbw GB/s':>11} "
          f"{'busbw GB/s':>11} {'solve s':>8}")
    for size in _sweep_sizes(args.min_size, args.max_size):
        if args.collective == "allreduce":
            config = _bench_sweep_config(topo, size / n, args)
            outcome = collectives.synthesize_allreduce(topo, config)
            finish, solve = outcome.finish_time, outcome.solve_time
            busbw = outcome.bus_bandwidth(n, size)
        else:
            plan = (collectives.allgather_plan(n, size)
                    if args.collective == "allgather"
                    else collectives.alltoall_plan(n, size))
            config = _bench_sweep_config(topo, plan.chunk_bytes, args)
            result = synthesize(topo, demand, config)
            finish, solve = result.finish_time, result.solve_time
            busbw = (size / finish) * (n - 1) / n
        algbw = size / finish
        rows.append({"size_bytes": size, "finish_time": finish,
                     "algbw": algbw, "busbw": busbw, "solve_time": solve})
        print(f"{size:>12} {finish * 1e6:>12.3f} {algbw / 1e9:>11.3f} "
              f"{busbw / 1e9:>11.3f} {solve:>8.2f}")
    path = pathlib.Path(args.output if args.output is not None
                        else "benchmarks/results/BENCH_fleet_sweep.json")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ServiceError(f"cannot write --output: {exc}") from exc
    _write_json(path, {
        "topology": topo.name, "gpus": n,
        "collective": args.collective, "rows": rows,
        "note": "hccl_demo-style sweep: algbw = buffer/finish, busbw "
                "applies the collective's traffic factor",
    }, "--output")
    print(f"published    : {path}")
    return 0


def _parse_fleet_events(args: argparse.Namespace):
    """--degrade/--fail flags → scripted telemetry events."""
    from repro.fleet import LinkEvent

    events = []
    for flag, specs, shape in (
            ("--degrade", args.degrade, "SRC,DST,FACTOR,AT"),
            ("--fail", args.fail, "SRC,DST,AT")):
        for spec in specs:
            parts = spec.split(",")
            if len(parts) != len(shape.split(",")):
                raise ServiceError(f"{flag} wants {shape}, got {spec!r}")
            src, dst, *factor, at = parts
            try:
                how = {"factor": float(factor[0])} if factor \
                    else {"down": True}
                events.append(LinkEvent(at=float(at),
                                        link=(int(src), int(dst)), **how))
            except ValueError as exc:
                raise ServiceError(f"bad {flag} {spec!r}: {exc}") from exc
    return events


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.fleet import (FleetJob, FleetOrchestrator, SyntheticTelemetry,
                             WriteAheadLog, atomic_write_json)

    if args.recover and not args.wal:
        raise ServiceError("--recover needs --wal (nothing to recover from)")
    if args.flight_dir:
        _flight.set_dump_dir(args.flight_dir)
        if _flight.install_signal_dump():
            print(f"flight       : {args.flight_dir} "
                  "(SIGUSR2 dumps the ring)")
        else:
            print(f"flight       : {args.flight_dir}")
    topo, _ = _instance(args)
    events = _parse_fleet_events(args)
    job_names = [name.strip() for name in args.jobs.split(",")
                 if name.strip()]
    for name in job_names:
        if name not in _COLLECTIVES:
            raise ServiceError(f"unknown collective {name!r} in --jobs")
    source = SyntheticTelemetry(
        topo, events=events, seed=args.seed,
        drift=DriftModel(sigma=args.drift) if args.drift > 0 else None)
    config = _config(args)
    # the WAL is a context: a failed lease, admission or recovery must
    # still close the log's file handle
    with (WriteAheadLog(args.wal) if args.wal
          else contextlib.nullcontext()) as wal, \
            _tracing(args.trace), \
            Planner(executor=args.pool_kind) as planner:
        if wal is not None:
            generation = wal.attach_lease(takeover=args.takeover)
            print(f"wal          : {args.wal} (generation {generation})")
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
        for index, name in enumerate(job_names):
            job_name = f"{name}#{index}"
            if job_name in fleet.jobs:
                entry = fleet.registry.active(job_name)
                if entry is not None:
                    print(f"resumed      : {job_name} (finish "
                          f"{entry.result.finish_time * 1e6:.3f} us, "
                          "recovered from WAL)")
                continue
            job = FleetJob(name=job_name,
                           demand=_COLLECTIVES[name](topo.gpus, args.chunks),
                           config=config)
            entry = fleet.add_job(job)
            print(f"admitted     : {job.name} "
                  f"(finish {entry.result.finish_time * 1e6:.3f} us, "
                  f"method {entry.result.method.value})")
        # a recovered job whose incumbent was dropped at conformance
        # re-vetting is admitted but scheduleless (the adaptation loop only
        # replans incumbents): plan it fresh, on its final share
        for job_name, entry in sorted(fleet.plan_missing().items()):
            print(f"replanned    : {job_name} "
                  f"(finish {entry.result.finish_time * 1e6:.3f} us, "
                  "recovered incumbent dropped)")
        for _ in range(args.steps):
            for decision in fleet.step():
                print(f"  {decision}")
        status = fleet.status()
        stats = status["stats"]
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
        print(f"  alert      : {_alert_line(doc)}")
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
    status = _read_json(args.status_file, "status file")
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
            print(f"  {_alert_line(doc, 8)}")
    latency = status.get("serve_latency", {})
    if latency.get("count"):
        print(f"serve latency: p50 {latency['p50'] * 1e3:.2f} ms / "
              f"p95 {latency['p95'] * 1e3:.2f} ms / "
              f"p99 {latency['p99'] * 1e3:.2f} ms "
              f"({latency['count']} serves)")
    for line in status.get("decisions", []):
        print(f"  {line}")
    return 0


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    summary = obs.summarize(obs.read_events(args.trace))
    print(obs.format_summary(summary, top=args.top))
    return 0


def _cmd_obs_export_trace(args: argparse.Namespace) -> int:
    events = obs.read_events(args.trace)
    path = obs.write_chrome_trace(events, args.output)
    spans = sum(1 for e in events if e.get("kind") == "span")
    print(f"exported     : {path} ({spans} spans; load in "
          "chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _read_snapshot(path: str) -> dict:
    """A metrics snapshot file (see `serve-batch --metrics-file`)."""
    snapshot = _read_json(path, "metrics file", ObservabilityError)
    if not isinstance(snapshot, dict):
        raise ObservabilityError(
            "metrics file must hold a JSON object (registry snapshot)")
    return snapshot


def _cmd_obs_metrics(args: argparse.Namespace) -> int:
    snapshot = _read_snapshot(args.file)
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
    if (args.file is None) == (args.output is None):
        raise ObservabilityError(
            "obs dump needs exactly one of --file (render an existing "
            "dump) or --output (dump this process's ring)")
    if args.limit is not None and args.limit < 1:
        # 0 would slice [-0:] (everything, plus an "N earlier records not
        # shown" footer) and a negative N would drop the oldest instead
        raise ObservabilityError("--limit must be a positive event count")
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


def _cmd_obs_alerts(args: argparse.Namespace) -> int:
    if args.status_file is not None:
        status = _read_json(args.status_file, "status file",
                            ObservabilityError)
        if not isinstance(status, dict):
            raise ObservabilityError("status file must hold a JSON object")
        firing = status.get("alerts", [])
        if args.as_json:
            print(json.dumps(firing, indent=2))
        elif not firing:
            print("alerts       : none firing")
        else:
            for doc in firing:
                print(f"  {_alert_line(doc, 8)}")
        return 1 if firing else 0
    snapshot = _read_snapshot(args.metrics_file)
    rules = None
    if args.rules:
        docs = _read_json(args.rules, "rules file", ObservabilityError)
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
    if args.last:
        docs = [obs.load_last_explain(args.flight_dir)]
    else:
        loaded = _read_json(args.response, "response file",
                            ObservabilityError)
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
    try:
        return args.handler(args)
    except ReproError as exc:
        # post-incident context: when a flight dir is configured the ring
        # around the failure lands on disk (quiet no-op otherwise)
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
