"""The perf ledger: one command for the serve, cold-solve and fleet paths.

    python3 benchmarks/ledger/run.py                      # all five workloads
    python3 benchmarks/ledger/run.py --traced             # + per-layer pass
    python3 benchmarks/ledger/run.py --workload serve-hit --seed 1 \
        --seconds 12 --trace 0                            # one measured run
    python3 benchmarks/ledger/run.py --self-test          # quick, < 1 min

One run = one workload in one fresh process: set-up, rounds of the
workload's fixed op list for ``--seconds`` of op time, verification of every
answer outside the timed section, then one line per metric and, last, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones; both lists
live in the top-level ``BENCHMARK.json``. See README.md beside this file.
"""

import time

_PROCESS_START = time.perf_counter()  # before the heavy imports: set-up time

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

#: calibration drift above which a run is marked noisy
NOISY_DRIFT = 0.10
LEDGER_SCHEMA_VERSION = 1


def definition() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# one measured run
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool = False) -> dict:
    """Run one workload; returns the full report of the run."""
    import harness
    from reference import References
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    pacer = harness.Pacer()
    pacer.tick(force=True)
    import_s /= pacer.slowdown(0.0, 0.0)
    scratch = OUT / "scratch" / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    refs = References()
    workload = WORKLOADS[name](seed, scratch, refs, pacer, quick=quick)
    try:
        calibration_before = harness.calibration_ms(pacer)
        setup_times = []
        for _ in range(workload.setup_reps):
            pacer.tick(force=True)
            start = time.perf_counter()
            workload.prepare()
            end = time.perf_counter()
            pacer.tick(force=True)
            setup_times.append((end - start) / pacer.slowdown(start, end))

        tracer = harness.Tracer() if trace else None
        samples, walls, raw_walls = [], [], []
        cpu_start = harness.cpu_seconds()
        # traced runs pair rounds: same variant, spans off then on
        while sum(walls) < seconds or not walls or (trace
                                                    and len(walls) % 2):
            index = len(walls)
            spans_on = trace and index % 2 == 1
            round_samples, wall = workload.run_round(
                index, index // 2 if trace else index,
                tracer if spans_on else None)
            pacer.tick(force=True)
            # every timing from here on is at reference host speed
            raw = sum(s.latency for s in round_samples)
            for sample in round_samples:
                sample.latency /= pacer.slowdown(
                    sample.start, sample.start + sample.latency)
            scaled = sum(s.latency for s in round_samples)
            samples += round_samples
            raw_walls.append(wall)
            # time between ops (idle fleet steps) at the round's mean speed
            walls.append(scaled + (wall - raw) * scaled / raw)
        cpu = (harness.cpu_seconds() - cpu_start) \
            * sum(walls) / sum(raw_walls)

        workload.verify(samples)
        layers = workload.layers(tracer, samples) if trace else {}
        per_instance = workload.per_instance(tracer) if trace else {}
        calibration_after = harness.calibration_ms(pacer)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [s for s in samples if s.failure is not None]
    served = len(samples) - len(failed)
    qualities = [s.quality for s in samples if s.quality is not None]
    drift = abs(calibration_after - calibration_before) / calibration_before
    end_to_end = {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": served / sum(walls),
        "latency_p50_ms": 1e3 * harness.median_over_rounds(
            samples, lambda lat: harness.percentile(lat, 50)),
        "latency_tail_ms": 1e3 * harness.median_over_rounds(
            samples, lambda lat: harness.percentile(lat, workload.tail)),
        "cpu_s": cpu / len(walls),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick,
        "rounds": len(walls), "attempted": len(samples),
        "failed": len(failed), "correct": not failed,
        "failures": sorted({f"{s.name}: {s.failure}" for s in failed})[:20],
        "failed_share": len(failed) / len(samples),
        "quality_ratio": harness.geometric_mean(qualities)
        if qualities else float("nan"),
        "tail_percentile": workload.tail,
        "end_to_end": end_to_end,
        "references_computed": sorted(refs.computed),
        "noisy": drift > NOISY_DRIFT,
    }
    if trace:
        traced_wall = sum(walls[1::2])
        layers.update({
            "quality_ratio": report["quality_ratio"],
            "failed_share": report["failed_share"],
            "simulate.conformance.check_ms": harness.median_or_zero(
                workload.check_times, 1e3),
            "simulate.conformance.violations": float(workload.violations),
            "core.schedule.bytes_sent_ratio": harness.geometric_mean(
                workload.bytes_ratios) if workload.bytes_ratios else 0.0,
            "core.schedule.finish_epochs": statistics.mean(
                workload.finish_epochs) if workload.finish_epochs else 0.0,
            "host.calibration_ms": calibration_before,
            "host.calibration_drift": drift,
            "host.slowdown": statistics.median(pacer.durations)
            / harness.SPEED_REFERENCE_S,
            "trace.overhead_share": traced_wall / sum(walls[0::2]) - 1.0,
        })
        report["per_layer"] = layers
        report["per_instance"] = per_instance
        report["self_time_s"] = tracer.self_times()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}.jsonl")
    return report


def contract_line(report: dict, spec: dict) -> dict:
    """The result object the benchmark contract asks for on the last line."""
    declared = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    values = report["per_layer"] if report["trace"] \
        else report["end_to_end"]
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        # a layer this workload never enters reads 0
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in declared},
    }


def print_report(report: dict, line: dict) -> None:
    n = report["attempted"]
    print(f"# {report['workload']}  seed={report['seed']} "
          f"rounds={report['rounds']} ops={n} failed={report['failed']} "
          f"quality_ratio={report['quality_ratio']:.9f} "
          f"tail=p{report['tail_percentile']}"
          + ("  NOISY (calibration drift > 0.10)" if report["noisy"]
             else ""))
    for name, metric in line["metrics"].items():
        print(f"{name:<42} {metric['value']:>16.6f} {metric['unit']:<6} "
              f"n={n}")
    if not report["trace"]:
        print(f"{'failed_share':<42} {report['failed_share']:>16.6f} "
              f"{'ratio':<6} n={n}")
        print(f"{'quality_ratio':<42} {report['quality_ratio']:>16.9f} "
              f"{'ratio':<6} n={n}")
    for failure in report["failures"]:
        print(f"! {failure}")
    for key in report["references_computed"]:
        print(f"! reference {key} is not in golden.json; computed it")
    for name, row in report.get("per_instance", {}).items():
        wall = row["core.solve.synthesize_ms"]
        stages = "  ".join(f"{key.rsplit('.', 1)[-1][:-3]}={value:.1f}"
                           for key, value in row.items()
                           if value and key != "core.solve.synthesize_ms")
        print(f"  {name:<30} {wall:>9.1f} ms  {stages}")


def single(args, spec: dict) -> int:
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     quick=args.quick)
    line = contract_line(report, spec)
    print_report(report, line)
    OUT.mkdir(exist_ok=True)
    stem = f"run-{args.workload}-seed{args.seed}-trace{report['trace']}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)
    print(json.dumps(line))
    return 1 if args.strict and (report["noisy"] or report["failed"]) else 0


# ----------------------------------------------------------------------
# the ledger: every workload, each in a fresh process
# ----------------------------------------------------------------------
def host_facts() -> dict:
    import numpy
    import scipy
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {"schema_version": LEDGER_SCHEMA_VERSION, "bench": "ledger",
            "created_unix": time.time(), "git_rev": rev,
            "host": {"platform": platform.platform(),
                     "python": platform.python_version(),
                     "cpus": os.cpu_count(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__}}


def invoke(workload: str, seed: int, seconds: float, trace: int,
           quick: bool, echo: bool = True) -> dict:
    """One run in a fresh subprocess; returns its saved report."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)] + (["--quick"] if quick else [])
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    if echo:
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
    with open(OUT / f"run-{workload}-seed{seed}-trace{trace}.json",
              encoding="utf-8") as handle:
        return json.load(handle)


def ledger(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    # page cache and .pyc files warm before anything is timed
    invoke(names[2], args.seed, 0, 0, quick=True, echo=False)
    runs = []
    for name in names:
        for trace in (0, 1) if args.traced else (0,):
            runs.append(invoke(name, args.seed, args.seconds, trace,
                               args.quick))
    bad = [r for r in runs if r["noisy"] or r["failed"]]
    if args.out:
        path = Path(args.out)
        document = host_facts()
        document["runs"] = []
        if path.exists():
            with open(path, encoding="utf-8") as handle:
                document["runs"] = json.load(handle)["runs"]
        document["runs"] += runs
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, default=str)
        print(f"# {len(runs)} runs appended to {path}")
    for run in bad:
        print(f"! {run['workload']} trace={run['trace']}: "
              + ("noisy " if run["noisy"] else "")
              + (f"{run['failed']} failed ops" if run["failed"] else ""))
    return 1 if args.strict and bad else 0


# ----------------------------------------------------------------------
# self-test and golden regeneration
# ----------------------------------------------------------------------
def self_test(args, spec: dict) -> int:
    """Quick pass over every workload, untraced and traced (in-process)."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    from workloads import WORKLOADS
    if names != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != "
                        f"{list(WORKLOADS)}")
    declared = {m["name"] for m in spec["per_layer"]}
    pattern = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not pattern.match(metric["name"]):
            problems.append(f"bad metric name {metric['name']!r}")
    for name in names:
        for trace in (False, True):
            report = measure(name, args.seed, 0, trace, quick=True)
            line = contract_line(report, spec)
            print_report(report, line)
            label = f"{name} trace={int(trace)}"
            if report["failed"]:
                problems.append(f"{label}: failed_share != 0")
            for key, metric in line["metrics"].items():
                if not math.isfinite(metric["value"]):
                    problems.append(f"{label}: {key} is not finite")
            if not trace:
                for key, value in report["end_to_end"].items():
                    if not value > 0:
                        problems.append(f"{label}: {key} = {value}")
                continue
            unknown = set(report["per_layer"]) - declared
            if unknown:
                problems.append(f"{label}: undeclared layer metrics "
                                f"{sorted(unknown)}")
            share = report["per_layer"].get("core.solve.unattributed_share")
            if name.startswith("cold-") and not share < 0.15:
                problems.append(f"{label}: unattributed_share = {share}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def regen_golden() -> int:
    """Recompute every committed reference with the shortcut-free path."""
    import instances
    from reference import GOLDEN_PATH, References
    from repro.service import PlanRequest
    from repro.topology import with_capacity_overrides
    from workloads import CONGESTION, DEGRADATION

    GOLDEN_PATH.unlink(missing_ok=True)
    refs = References()
    todo = instances.cold_symmetric() + instances.cold_backend()
    for group in (instances.serve_hit(), instances.churn_catalogue()):
        todo += [inst for variants in group.values() for inst in variants]
    for inst in todo:
        refs.get(inst.name, inst.request, inst.pop_partitions)
        print(f"{inst.name}: {refs.computed[inst.name]}", flush=True)
    # fleet states as the default estimator reports them: EWMA weight 0.5,
    # a link is called degraded once its smoothed factor drops below 0.8
    topo = instances.fleet_fabric()
    one = 0.5 * DEGRADATION + 0.5 * 1.0
    first = 0.5 * CONGESTION + 0.5 * 1.0
    every = 0.5 * CONGESTION + 0.5 * first
    states = {"healthy": topo,
              f"all@{every:.6g}": with_capacity_overrides(
                  topo, {key: every for key in topo.links})}
    for s, d in instances.fleet_candidate_links(topo):
        states[f"{s}-{d}@{one:.6g}"] = with_capacity_overrides(
            topo, {(s, d): one})
    classes = {cls: (demand, config)
               for _, cls, demand, config in instances.fleet_jobs(topo)}
    for state, live in states.items():
        for cls, (demand, config) in classes.items():
            key = f"fleet-{cls}-{state}"
            refs.get(key, PlanRequest(live, demand, config))
            print(f"{key}: {refs.computed[key]}", flush=True)
    refs.save()
    return 0


def main() -> int:
    spec = definition()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload in this process "
                             "(default: all, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="op time to measure; rounds always complete")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer pass with the benchmark's spans")
    parser.add_argument("--traced", action="store_true",
                        help="all-workload mode: add the per-layer pass")
    parser.add_argument("--quick", action="store_true",
                        help="cheap instance subsets (smoke runs only)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on a noisy host or a failed op")
    parser.add_argument("--out", help="all-workload mode: append the runs "
                                      "to this ledger file (for compare.py)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test(args, spec)
    if args.regen_golden:
        return regen_golden()
    if args.workload is None:
        return ledger(args, spec)
    args.trace = args.trace or int(args.traced)
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
