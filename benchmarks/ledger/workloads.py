"""The ledger's five workloads.

Each workload is a fixed op list run in rounds by one closed-loop client
against a public entry point: ``Planner.plan`` (serve-*), ``synthesize``
(cold-*), ``AdaptationController.step`` (fleet-replan). The seed orders or
draws the inputs; the program only ever sees the generated requests and
link events. A round is always run to completion, so every round of a
workload is the same work and per-round statistics are comparable.

A workload exposes::

    prepare()                      set-up: inputs, service, warm-up
    run_round(index, variant, tracer) -> (samples, wall_seconds)
    verify(samples)                fill sample.failure / sample.quality
    layers(tracer, samples)        per-layer metrics of the traced pass
    close()

``variant`` picks the seeded order/draw of the round; the traced pass runs
rounds in pairs (same variant, spans off then on) so the overhead of the
benchmark's own tracing is a like-for-like difference.
"""

from __future__ import annotations

import collections
import itertools
import random
import shutil
import statistics
import time
from dataclasses import replace
from pathlib import Path

from repro.core import symmetry
from repro.core.config import SwitchModel
from repro.core.solve import SynthesisResult
from repro.fleet import (AdaptationController, FabricEstimator, FleetJob,
                         LinkEvent, LinkHealth, SyntheticTelemetry,
                         WriteAheadLog)
from repro.service import Planner, PlanRequest
from repro.service.cache import ScheduleCache
from repro.service.fingerprint import (fingerprint_request,
                                       near_fingerprint_request)
from repro.service.pool import SolvePool, solve_request

import instances
from harness import (OpSample, Pacer, Tracer, geometric_mean,
                     median_or_zero)
from reference import (References, bandwidth_lower_bound, hit_time_limit,
                       judge, replay, replay_schedule)
from staged import STAGES, staged_synthesize


class Workload:
    """Shared bookkeeping; subclasses provide the ops."""

    name = ""
    #: percentile reported as ``latency_tail_ms`` (fixed per workload)
    tail = 95
    #: how many times set-up is repeated for the ``setup_s`` median
    setup_reps = 1

    def __init__(self, seed: int, scratch: Path, refs: References,
                 pacer: Pacer, quick: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.refs = refs
        #: ticked before every op so the harness knows the host's speed
        self.pacer = pacer
        self.quick = quick
        #: wall-clock of every ``check_result`` replay done by verify()
        self.check_times: list[float] = []
        self.violations = 0
        #: replayed schedules' bytes on the wire ÷ the reference's, and
        #: their last active epoch + 1
        self.bytes_ratios: list[float] = []
        self.finish_epochs: list[int] = []
        self._epochs: dict = {}
        self._bounds: dict[str, float] = {}
        #: name -> Instance of every op, and the last response served per
        #: (name, served-from) — what verify() replays
        self.by_name: dict[str, instances.Instance] = {}
        self.keep: dict = {}

    def rng(self, variant: int) -> random.Random:
        return random.Random(self.seed * 100003 + variant)

    def close(self) -> None:
        pass

    def per_instance(self, tracer: Tracer) -> dict:
        """Per-instance layer split, where a workload has one."""
        return {}

    def _judge(self, sample: OpSample, inst: instances.Instance) -> None:
        bound = self._bounds.get(inst.name)
        if bound is None:
            bound = self._bounds[inst.name] = bandwidth_lower_bound(
                inst.request)
        judge(sample, self.refs.get(inst.name, inst.request,
                                    inst.pop_partitions), bound)

    def _replayed(self, key: str, request: PlanRequest, schedule,
                  pop_partitions: int = 0) -> None:
        """Book a replayed schedule's totals against its reference."""
        reference = self.refs.get(key, request, pop_partitions)
        self.bytes_ratios.append(schedule.total_bytes()
                                 / reference.total_bytes)
        self.finish_epochs.append(schedule.finish_epoch + 1)

    # -- helpers shared by the planner-backed workloads -----------------
    def _plan(self, planner: Planner, inst: instances.Instance, index: int,
              tracer: Tracer | None, span_name: str) -> OpSample:
        """One timed ``Planner.plan`` call as an :class:`OpSample`."""
        self.pacer.tick()
        start = time.perf_counter()
        try:
            if tracer is None:
                response = planner.plan(inst.request)
            else:
                with tracer.span(span_name, op=inst.name):
                    response = planner.plan(inst.request)
        except Exception as exc:  # noqa: BLE001 - any raise is a failed op
            return OpSample(inst.name, index, time.perf_counter() - start,
                            start, error=f"{type(exc).__name__}: {exc}",
                            traced=tracer is not None)
        latency = time.perf_counter() - start
        source = "cache" if response.cache_hit else "solve"
        self.keep[(inst.name, source)] = (inst, response)
        finish = epoch = None
        if response.result is not None:
            # walking the schedule costs more than a hit: do it once per
            # distinct answer (the finish time is a function of the schedule)
            finish = response.result.finish_time
            epoch = self._epochs.get((inst.name, finish))
            if epoch is None:
                epoch = response.result.schedule.finish_epoch
                self._epochs[(inst.name, finish)] = epoch
        return OpSample(inst.name, index, latency, start,
                        error=response.error,
                        finish_time=finish, finish_epoch=epoch,
                        source=source, traced=tracer is not None)

    def _verify_planned(self, samples: list[OpSample]) -> None:
        """Cheap checks on every op, a full replay per (request, source)."""
        for sample in samples:
            self._judge(sample, self.by_name[sample.name])
        broken = {}
        for (name, source), (inst, response) in self.keep.items():
            if response.result is None:
                continue
            failure = replay(response.result, inst.request,
                             self.check_times)
            self._replayed(name, inst.request, response.result.schedule)
            if failure is not None:
                broken[(name, source)] = failure
                self.violations += 1
        for sample in samples:
            failure = broken.get((sample.name, sample.source))
            if failure is not None and sample.failure is None:
                sample.failure = failure


# ----------------------------------------------------------------------
# serve layers, timed standalone on a workload's own requests
# ----------------------------------------------------------------------
_DUMMY_FINGERPRINT = "0" * 64


def probe_serve_layers(tracer: Tracer, inst: instances.Instance,
                       payload: dict, cache_dir: Path, reps: int) -> None:
    """Time each serve layer's public function on one request/payload.

    Mirrors what ``Planner.plan`` does on a hit (canonicalize, fingerprint,
    cache lookup, deserialise, relabel) and on a miss (near key, request
    serialisation, archive) — one span per call, tagged with the request's
    name so shares can be taken per request.
    """
    request = inst.request
    config = request.config
    rewritable = not (config.priorities or config.capacity_fn is not None
                      or config.switch_model is SwitchModel.HYPER_EDGE)
    key = dict(method=request.method, astar_config=request.astar_config,
               minimize_epochs=request.minimize_epochs)
    memory = ScheduleCache(capacity=4)
    disk = ScheduleCache(capacity=1, directory=cache_dir)
    for _ in range(reps):
        demand, inverse = request.demand, None
        if rewritable:
            with tracer.span("core.symmetry.canonicalize", op=inst.name):
                demand, sigma = symmetry.canonicalize_demand(
                    request.topology, request.demand)
            if demand is not request.demand:
                inverse = symmetry.invert_permutation(sigma)
        with tracer.span("service.fingerprint.exact", op=inst.name):
            fingerprint = fingerprint_request(request.topology, demand,
                                              config, **key)
        with tracer.span("service.fingerprint.near"):
            near_fingerprint_request(request.topology, demand, config,
                                     **key)
        with tracer.span("service.schema.request_to_dict"):
            replace(request, demand=demand).to_dict()
        memory.put(fingerprint, payload)
        with tracer.span("service.cache.get_mem", op=inst.name):
            memory.get(fingerprint)
        with tracer.span("service.cache.put"):
            disk.put(fingerprint, payload)
        disk.put(_DUMMY_FINGERPRINT, {})  # capacity 1: evicts the payload
        with tracer.span("service.cache.get_disk"):
            disk.get(fingerprint)
        with tracer.span("core.solve.from_dict", op=inst.name):
            result = SynthesisResult.from_dict(payload)
        with tracer.span("core.solve.to_dict"):
            result.to_dict()
        if inverse is not None:
            with tracer.span("core.solve.relabel", op=inst.name):
                result.relabeled(inverse)
    disk.purge()


#: the parts of a cache hit the benchmark can time from outside
_HIT_PARTS = ("core.symmetry.canonicalize", "service.fingerprint.exact",
              "service.cache.get_mem", "core.solve.from_dict",
              "core.solve.relabel")


#: span name -> per-call metric of the serve layers
_SERVE_LAYERS = ("service.fingerprint.exact", "service.fingerprint.near",
                 "service.schema.request_to_dict",
                 "core.symmetry.canonicalize", "service.cache.get_mem",
                 "service.cache.get_disk", "service.cache.put",
                 "core.solve.from_dict", "core.solve.to_dict",
                 "core.solve.relabel")


def serve_layer_metrics(tracer: Tracer) -> dict[str, float]:
    return {f"{span}_us": median_or_zero(tracer.durations(span), 1e6)
            for span in _SERVE_LAYERS}


def cache_metrics(stats: dict, distinct_requests: int) -> dict[str, float]:
    """Counts from ``Planner.stats()`` (one planner's lifetime)."""
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "service.cache.hit_ratio": cache["hits"] / lookups if lookups
        else 0.0,
        "service.cache.disk_hit_ratio": (cache["disk_hits"] / cache["hits"]
                                         if cache["hits"] else 0.0),
        "service.cache.evictions": float(cache["evictions"]),
        "service.pool.coalesced": float(stats["coalesced"]),
        # distinct cache entries per distinct request: 1.0 = symmetry
        # collapsed nothing, 1/16 = sixteen rotated roots share one entry
        "core.symmetry.collapse_ratio": cache["stores"] / distinct_requests,
    }


def staged_layer_metrics(tracer: Tracer, outcomes: list,
                         passes: int) -> dict[str, float]:
    """Solve-layer metrics of ``passes`` staged passes over an op list.

    ``_ms`` values are the per-pass *sum* over the op list (so they add up
    to ``core.solve.synthesize_ms`` and relate directly to round time);
    counts are per-pass sums too.
    """
    ms = 1e3 / passes
    total = {stage: sum(tracer.durations(stage)) for stage in STAGES}
    wall = sum(tracer.durations("core.solve.synthesize"))
    counts: dict[str, float] = collections.defaultdict(float)
    for outcome in outcomes:
        for key, value in outcome.counts.items():
            counts[key] += value / passes
    reduced = counts["core.symmetry.cols_reduced"]
    lp_cols = counts["core.lp.cols"]
    return {
        "core.epochs.plan_ms": total["core.epochs.plan"] * ms,
        "core.epochs.horizon_epochs": counts["core.epochs.horizon_epochs"],
        "core.lp.build_ms": total["core.lp.build"] * ms,
        "core.lp.cols": lp_cols,
        "core.lp.rows": counts["core.lp.rows"],
        "core.lp.nnz": counts["core.lp.nnz"],
        "core.lp.extract_ms": total["core.lp.extract"] * ms,
        "core.lp.horizon_probes": counts["core.lp.horizon_probes"],
        "core.lp.search_ms": total["core.lp.search"] * ms,
        "core.milp.build_ms": total["core.milp.build"] * ms,
        "core.milp.cols": counts["core.milp.cols"],
        "core.milp.rows": counts["core.milp.rows"],
        "core.milp.extract_ms": total["core.milp.extract"] * ms,
        "solver.model.compile_ms": total["solver.model.compile"] * ms,
        "solver.model.backend_ms": total["solver.model.backend"] * ms,
        "solver.model.backend_share": (total["solver.model.backend"] / wall
                                       if wall else 0.0),
        "core.symmetry.detect_ms": total["core.symmetry.detect"] * ms,
        "core.symmetry.generators": counts["core.symmetry.generators"],
        "core.symmetry.reduce_ms": total["core.symmetry.reduce"] * ms,
        "core.symmetry.cols_reduced": reduced,
        "core.symmetry.rows_reduced": counts["core.symmetry.rows_reduced"],
        # reduced columns as a share of all LP columns built this pass
        "core.symmetry.compression": (reduced / lp_cols if lp_cols
                                      else 0.0),
        "core.symmetry.fallbacks": float(sum(
            1 for o in outcomes if o.violations) / passes),
        "core.solve.synthesize_ms": wall * ms,
        "core.solve.unattributed_share": (
            1.0 - sum(total.values()) / wall if wall else 0.0),
    }


def run_staged(tracer: Tracer, inst: instances.Instance):
    """One op through the staged replica, under its op span."""
    with tracer.span("core.solve.synthesize", op=inst.name):
        return staged_synthesize(inst, tracer)


# ----------------------------------------------------------------------
# serve-hit
# ----------------------------------------------------------------------
class ServeHit(Workload):
    """Hot-cache reads over eight instance classes: service.* and
    canonicalize_demand do all the work, the solver none (tail = p95)."""

    name = "serve-hit"
    tail = 95
    planner = None
    #: each class is asked for this many times per round
    per_class = 16

    def prepare(self) -> None:
        self.close()
        classes = instances.serve_hit()
        if self.quick:  # drop the two classes that take seconds to warm
            del classes["ring16-a2a"], classes["internal1x2-ag-hyper"]
        self.classes = classes
        self.by_name = {inst.name: inst
                        for variants in classes.values()
                        for inst in variants}
        self.keep = {}
        self.planner = Planner(executor="inline")
        for inst in self.by_name.values():
            self.planner.plan(inst.request)
        self.solves_after_warm = self.planner.stats()["solves"]

    def close(self) -> None:
        if self.planner is not None:
            self.planner.close()
            self.planner = None

    def run_round(self, index, variant, tracer):
        ops = [variants[i % len(variants)]
               for variants in self.classes.values()
               for i in range(self.per_class)]
        self.rng(variant).shuffle(ops)
        samples = [self._plan(self.planner, inst, index, tracer,
                              "service.planner.hit")
                   for inst in ops]
        return samples, sum(s.latency for s in samples)

    def verify(self, samples) -> None:
        self._verify_planned(samples)
        solved = self.planner.stats()["solves"] - self.solves_after_warm
        for sample in samples:
            if sample.source != "cache" and sample.failure is None:
                sample.failure = "a warmed request missed the cache"
        if solved and samples and samples[0].failure is None:
            samples[0].failure = (f"{solved} solver calls during the "
                                  "timed section of serve-hit")

    def layers(self, tracer, samples) -> dict[str, float]:
        for inst in self.by_name.values():
            fingerprint = self.keep[(inst.name, "cache")][1].fingerprint
            probe_serve_layers(tracer, inst,
                               self.planner.cache.peek(fingerprint),
                               self.scratch / "probe-cache", reps=5)
        hit = {}
        for sample in samples:
            if sample.traced:
                hit.setdefault(sample.name, []).append(sample.latency)
        shares = []
        for name, latencies in hit.items():
            parts = sum(median_or_zero(tracer.durations(part, op=name))
                        for part in _HIT_PARTS)
            shares.append(1.0 - parts / statistics.median(latencies))
        metrics = serve_layer_metrics(tracer)
        metrics.update(cache_metrics(self.planner.stats(),
                                     len(self.by_name)))
        metrics["service.planner.hit_us"] = median_or_zero(
            tracer.durations("service.planner.hit"), 1e6)
        metrics["service.planner.hit_unattributed_share"] = \
            statistics.median(shares)
        return metrics


# ----------------------------------------------------------------------
# serve-churn
# ----------------------------------------------------------------------
class ServeChurn(Workload):
    """Zipf(1.1) stream over 64 small requests on a cold-started
    process-pool planner with a 32-entry LRU over a disk tier: misses,
    archive, eviction, disk reads, near donors, vetting (tail = p90)."""

    name = "serve-churn"
    tail = 90
    planner = None
    setup_reps = 3
    ops_per_round = 256
    zipf = 1.1
    #: requests the traced pass also drives through the bare pool, a
    #: scratch planner and the staged replica (all solve in < 0.1 s)
    sample_families = ("dgx1-a2a-25000B", "dgx1-ag-25000B", "ring8-a2a",
                       "internal2x4-a2a-hyper", "dgx1-scatter",
                       "ring8-gather", "ring12-degraded-scatter",
                       "internal2x4-broadcast")

    def prepare(self) -> None:
        self.close()
        rng = random.Random(self.seed)
        drawn = {}
        for family, variants in instances.churn_catalogue().items():
            count = instances.CHURN_DRAWS.get(family, 1)
            drawn[family] = rng.sample(variants, count) \
                if len(variants) > 1 else list(variants)
        self.drawn = drawn
        # rank order interleaves the families so the hot head of the Zipf
        # curve holds one request of every kind on every seed
        self.population = [
            inst for tier in itertools.zip_longest(*drawn.values())
            for inst in tier if inst is not None]
        if self.quick:
            self.population = self.population[:16]
        weights = [1.0 / rank ** self.zipf
                   for rank in range(1, len(self.population) + 1)]
        scale = self.ops_per_round / sum(weights)
        if self.quick:
            scale /= 4
        self.stream = [inst for inst, weight
                       in zip(self.population, weights)
                       for _ in range(max(1, round(weight * scale)))]
        self.by_name = {inst.name: inst for inst in self.population}
        self.keep = {}
        self.round_stats: list[dict] = []
        self._open(0)

    def _open(self, index: int) -> None:
        self.cache_dir = self.scratch / f"churn-cache-{index}"
        self.planner = Planner(executor="process", max_workers=1,
                               check_conformance=True, cache_capacity=32,
                               cache_dir=self.cache_dir)

    def close(self) -> None:
        if self.planner is not None:
            self.planner.close()
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.planner = None

    def run_round(self, index, variant, tracer):
        if self.planner is None:
            self._open(index)
        ops = list(self.stream)
        self.rng(variant).shuffle(ops)
        samples = [self._plan(self.planner, inst, index, tracer,
                              "service.planner.plan")
                   for inst in ops]
        self.round_stats.append(self.planner.stats())
        self.close()  # the next round starts a cold service
        return samples, sum(s.latency for s in samples)

    def verify(self, samples) -> None:
        self._verify_planned(samples)

    def layers(self, tracer, samples) -> dict[str, float]:
        for (name, source), (inst, response) in self.keep.items():
            if source == "solve" and response.result is not None:
                probe_serve_layers(tracer, inst, response.result.to_dict(),
                                   self.scratch / "probe-cache", reps=2)
        sample = [self.drawn[family][0] for family in self.sample_families
                  if self.drawn[family][0].name in self.by_name]
        inline, pooled, missed, outcomes = [], [], [], []
        with SolvePool(max_workers=1, executor="process") as pool, \
                Planner(executor="process", max_workers=1,
                        check_conformance=True) as planner:
            for inst in sample:
                document = inst.request.to_dict()
                start = time.perf_counter()
                solve_request(dict(document))
                inline.append(time.perf_counter() - start)
                start = time.perf_counter()
                future, _ = pool.submit(inst.name, dict(document))
                pool.wait(future)
                pooled.append(time.perf_counter() - start)
                start = time.perf_counter()
                planner.plan(inst.request)
                missed.append(time.perf_counter() - start)
                outcomes.append(run_staged(tracer, inst))
        metrics = serve_layer_metrics(tracer)
        metrics.update(staged_layer_metrics(tracer, outcomes, passes=1))
        # counts of the median round (each round is one planner lifetime)
        stats = sorted(self.round_stats,
                       key=lambda s: s["cache"]["hits"])[
                           len(self.round_stats) // 2]
        metrics.update(cache_metrics(stats, len(self.population)))
        metrics["service.planner.miss_overhead_ms"] = statistics.median(
            m - i for m, i in zip(missed, inline)) * 1e3
        metrics["service.pool.dispatch_overhead_ms"] = statistics.median(
            p - i for p, i in zip(pooled, inline)) * 1e3
        hits = [s.latency for s in samples
                if s.traced and s.source == "cache"]
        metrics["service.planner.hit_us"] = median_or_zero(hits, 1e6)
        return metrics


# ----------------------------------------------------------------------
# cold-symmetric / cold-backend
# ----------------------------------------------------------------------
class Cold(Workload):
    """Cold ``synthesize`` over a fixed instance list, no cache."""

    tail = 75
    setup_reps = 3
    #: instances cheap enough for ``--quick`` (each solves in < 0.7 s)
    quick_names: tuple = ()

    def build(self) -> list[instances.Instance]:
        raise NotImplementedError

    def prepare(self) -> None:
        self.ops = [inst for inst in self.build()
                    if not self.quick or inst.name in self.quick_names]
        self.by_name = {inst.name: inst for inst in self.ops}
        self.black_box: dict = {}
        self.staged: dict = {}
        self.staged_passes = 0

    def run_round(self, index, variant, tracer):
        ops = list(self.ops)
        self.rng(variant).shuffle(ops)
        if tracer is not None:
            self.staged_passes += 1
        samples = []
        for inst in ops:
            self.pacer.tick()
            start = time.perf_counter()
            try:
                if tracer is None:
                    outcome = instances.cold_solve(
                        inst.request, inst.pop_partitions)
                    self.black_box[inst.name] = outcome
                else:
                    outcome = run_staged(tracer, inst)
                    self.staged.setdefault(inst.name, []).append(outcome)
            except Exception as exc:  # noqa: BLE001 - a raise fails the op
                samples.append(OpSample(
                    inst.name, index, time.perf_counter() - start, start,
                    error=f"{type(exc).__name__}: {exc}",
                    traced=tracer is not None))
                continue
            samples.append(OpSample(
                inst.name, index, time.perf_counter() - start, start,
                finish_time=outcome.finish_time,
                finish_epoch=outcome.schedule.finish_epoch, source="solve",
                traced=tracer is not None))
        return samples, sum(s.latency for s in samples)

    def verify(self, samples) -> None:
        for sample in samples:
            self._judge(sample, self.by_name[sample.name])
        broken = {}
        for name, outcome in self.black_box.items():
            request = self.by_name[name].request
            if isinstance(outcome, SynthesisResult):
                failure = "stopped on its time limit" \
                    if hit_time_limit(outcome) \
                    else replay(outcome, request, self.check_times)
            else:
                failure = replay_schedule(
                    outcome.schedule, request.topology, request.demand,
                    outcome.plan, request.config, self.check_times)
            self._replayed(name, request, outcome.schedule,
                           self.by_name[name].pop_partitions)
            if failure is None:
                failure = self._replica_drift(name, outcome)
            if failure is not None:
                broken[name] = failure
                self.violations += 1
        for sample in samples:
            failure = broken.get(sample.name)
            if failure is not None and sample.failure is None:
                sample.failure = failure

    def _replica_drift(self, name: str, outcome) -> str | None:
        """The staged replica must reproduce the black box exactly."""
        inner = getattr(getattr(outcome, "outcome", None), "result", None)
        objective = getattr(inner, "objective", None)
        request = self.by_name[name].request
        for staged in self.staged.get(name, []):
            if abs(staged.finish_time - outcome.finish_time) \
                    > 1e-9 * abs(outcome.finish_time):
                return (f"staged replica finishes at {staged.finish_time!r}"
                        f", synthesize at {outcome.finish_time!r}")
            if (objective is not None and staged.objective is not None
                    and abs(staged.objective - objective)
                    > 1e-9 * max(1.0, abs(objective))):
                return (f"staged replica objective {staged.objective!r} "
                        f"!= synthesize's {objective!r}")
            failure = replay_schedule(staged.schedule, staged.topology,
                                      staged.demand, staged.plan,
                                      request.config, self.check_times)
            if failure is not None:
                return f"staged replica: {failure}"
        return None

    def layers(self, tracer, samples) -> dict[str, float]:
        outcomes = [o for per_op in self.staged.values() for o in per_op]
        return staged_layer_metrics(tracer, outcomes,
                                    max(1, self.staged_passes))

    def per_instance(self, tracer: Tracer) -> dict[str, dict[str, float]]:
        """Per-instance stage medians (ms) — the anchors' layer split."""
        table = {}
        for name in self.staged:
            wall = median_or_zero(
                tracer.durations("core.solve.synthesize", op=name), 1e3)
            row = {"core.solve.synthesize_ms": wall}
            for stage in STAGES:
                row[f"{stage}_ms"] = median_or_zero(
                    tracer.durations(stage, op=name), 1e3)
            table[name] = row
        return table


class ColdSymmetric(Cold):
    """Cold synthesize on eight symmetric fabrics (>= 2000 columns):
    core.symmetry bookkeeping is > 90 % of the wall, HiGHS ~1 % (tail =
    p75)."""

    name = "cold-symmetric"
    quick_names = ("torus4x4-a2a", "ring8-a2a-2chunk", "torus3x3-a2a",
                   "hypercube4-a2a", "fullmesh8-a2a-4chunk", "dgx1-ag-milp")

    def build(self):
        return instances.cold_symmetric()


class ColdBackend(Cold):
    """Cold synthesize on eight naturally asymmetric instances: HiGHS
    and the horizon search own the wall, symmetry detection is pure
    overhead (tail = p75)."""

    name = "cold-backend"
    quick_names = ("ring12-degraded-a2a", "internal1x2-a2a-minK-1MB",
                   "dgx1-degraded-ag-2chunk-K14", "ring12-degraded-a2a-pop2",
                   "dgx1-degraded-a2a")

    def build(self):
        return instances.cold_backend()


# ----------------------------------------------------------------------
# fleet-replan
# ----------------------------------------------------------------------
#: fabric-wide renegotiation factor and the single-link degradation
CONGESTION, DEGRADATION = 0.7, 0.5
#: scenario steps of one round: congestion over [2, 8), one slow link over
#: [14, 20); the estimator needs until step 22 to call the link healed
ROUND_STEPS = 25


class FleetReplan(Workload):
    """AdaptationController on ring12, four jobs, WAL on: fabric-wide
    congestion and a seeded single-link degradation, each detected,
    warm-replanned, vetted and healed (tail = p75)."""

    name = "fleet-replan"
    tail = 75
    controller = None

    def prepare(self) -> None:
        self.close()
        self.topo = instances.fleet_fabric()
        self.links = instances.fleet_candidate_links(self.topo)
        self.jobs = instances.fleet_jobs(self.topo)
        self.classes = {name: cls for name, cls, _, _ in self.jobs}
        self.idle: list[float] = []
        self.round_stats: list[dict] = []
        self.decisions: list = []
        self._open(0, 0)

    def _script(self, variant: int) -> list[LinkEvent]:
        link = self.rng(variant).choice(self.links)
        events = [LinkEvent(at=2.0, link=key, factor=CONGESTION, until=8.0)
                  for key in self.topo.links]
        if not self.quick:
            events.append(LinkEvent(at=14.0, link=link, factor=DEGRADATION,
                                    until=20.0))
        return events

    def _open(self, index: int, variant: int) -> None:
        self.variant = variant
        source = SyntheticTelemetry(self.topo, events=self._script(variant),
                                    seed=self.seed)
        self.wal_path = self.scratch / f"fleet-{index}.wal"
        self.wal = WriteAheadLog(self.wal_path)
        self.planner = Planner(executor="inline")
        self.controller = AdaptationController(self.topo, source,
                                               self.planner, wal=self.wal)
        for name, _, demand, config in self.jobs:
            self.controller.add_job(FleetJob(name, demand, config))
        self.admission_solves = self.planner.stats()["solves"]

    def close(self) -> None:
        if self.controller is None:
            return
        self.wal.close()
        self.planner.close()
        for path in self.scratch.glob(self.wal_path.name + "*"):
            path.unlink()
        self.controller = None

    def run_round(self, index, variant, tracer):
        if self.controller is None or self.variant != variant:
            self.close()
            self._open(index, variant)
        controller = self.controller
        samples, wall = [], 0.0
        steps = 12 if self.quick else ROUND_STEPS
        for step in range(steps):
            self.pacer.tick()
            start = time.perf_counter()
            error = None
            try:
                if tracer is None:
                    decisions = controller.step()
                else:
                    with tracer.span("fleet.controller.step",
                                     op=f"{index}:{step}"):
                        decisions = controller.step()
            except Exception as exc:  # noqa: BLE001 - a raise fails the op
                decisions, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            wall += latency
            if error is None and not decisions:
                self.idle.append(latency)
                continue
            samples.append(self._episode(index, latency, start, decisions,
                                         error, tracer is not None))
            if samples[-1].name == "healthy":
                self._settle()
        stats = controller.stats()
        stats["solves"] = self.planner.stats()["solves"] \
            - self.admission_solves
        stats["wal_records"] = self.wal.records_written
        self.round_stats.append(stats)
        self.close()  # the next round admits a fresh fleet
        return samples, wall

    def _settle(self) -> None:
        """Put every link's EWMA back on its declared capacity.

        "Events are spaced so the estimator settles between them", taken to
        the limit: after a heal the smoothed estimates only approach the
        declared capacity, so the next event would start from a fabric that
        differs in the third digit from run to run of the script. Settling
        exactly keeps the reachable fabric states a finite, committed set.
        """
        estimator = self.controller.estimator
        for key, link in self.topo.links.items():
            seen = estimator.estimate(key)
            estimator.restore(key, health=LinkHealth.HEALTHY,
                              ewma=link.capacity,
                              last_transition=seen.last_transition,
                              samples=seen.samples)

    def _episode(self, index, latency, start, decisions, error,
                 traced) -> OpSample:
        if error is not None:
            return OpSample("episode", index, latency, start, error=error,
                            traced=traced)
        estimator = self.controller.estimator
        degraded = estimator.degraded_links()
        if not degraded:
            state = "healthy"
        elif len(degraded) == len(self.topo.links):
            state = "all@" + "/".join(sorted({f"{f:.6g}"
                                              for f in degraded.values()}))
        else:
            state = ",".join(f"{s}-{d}@{f:.6g}"
                             for (s, d), f in sorted(degraded.items()))
        live = estimator.live_topology()
        served = []
        for decision in decisions:
            self.decisions.append(decision)
            entry = self.controller.registry.active(decision.job)
            served.append((decision, live, state,
                           None if entry is None else entry.result))
        return OpSample(state.split("@")[0] if "@" in state else state,
                        index, latency, start, source="replan",
                        traced=traced, payload=served)

    def verify(self, samples) -> None:
        demands = {name: (demand, config)
                   for name, _, demand, config in self.jobs}
        for sample in samples:
            if sample.error is not None:
                sample.failure = f"error: {sample.error}"
                continue
            ratios, replayed = [], set()
            for decision, live, state, result in sample.payload:
                demand, config = demands[decision.job]
                request = PlanRequest(live, demand, config)
                cls = self.classes[decision.job]
                if decision.action in ("failed", "rollback"):
                    sample.failure = f"{decision.job}: {decision.reason}"
                    break
                if decision.action != "replan":
                    continue
                probe = OpSample(decision.job, sample.round, 0.0,
                                 finish_time=decision.new_finish,
                                 finish_epoch=result.schedule.finish_epoch)
                self._judge(probe, instances.Instance(
                    f"fleet-{cls}-{state}", request))
                if probe.failure is None and (cls, state) not in replayed:
                    replayed.add((cls, state))
                    probe.failure = replay(result, request,
                                           self.check_times)
                    self.violations += probe.failure is not None
                    self._replayed(f"fleet-{cls}-{state}", request,
                                   result.schedule)
                if probe.failure is not None:
                    sample.failure = f"{decision.job}: {probe.failure}"
                    break
                ratios.append(probe.quality)
            if ratios and sample.failure is None:
                sample.quality = geometric_mean(ratios)

    def layers(self, tracer, samples) -> dict[str, float]:
        # estimator: one collection interval of the real fabric per call
        estimator = FabricEstimator(self.topo)
        source = SyntheticTelemetry(self.topo, events=self._script(0),
                                    seed=self.seed)
        for _ in range(ROUND_STEPS):
            polled = source.poll()
            with tracer.span("fleet.estimate.update"):
                estimator.observe_all(polled)
        # WAL: the run's own decision records into a scratch log
        scratch_wal = self.scratch / "probe.wal"
        with WriteAheadLog(scratch_wal) as wal:
            for decision in self.decisions:
                with tracer.span("fleet.wal.append"):
                    wal.append("decision", decision.to_dict())
        scratch_wal.unlink()
        # solve layers: the coarse job, cold, on the first slow-link fabric
        outcomes = []
        for sample in samples:
            if sample.traced and sample.name not in ("healthy", "all",
                                                     "episode"):
                decision, live, _, _ = sample.payload[0]
                _, _, demand, config = self.jobs[0]
                outcomes.append(run_staged(tracer, instances.Instance(
                    "fleet-a2a-cold", PlanRequest(live, demand, config))))
                break
        metrics = staged_layer_metrics(tracer, outcomes, passes=1)
        stats = self.round_stats[-1]
        replans = stats["replans"]
        metrics.update({
            "fleet.estimate.update_us": median_or_zero(
                tracer.durations("fleet.estimate.update"), 1e6),
            "fleet.controller.step_idle_us": median_or_zero(self.idle, 1e6),
            "fleet.controller.episode_ms": median_or_zero(
                [s.latency for s in samples], 1e3),
            "fleet.controller.replans": float(replans),
            "fleet.controller.kept": float(stats["kept"]),
            "fleet.controller.rollbacks": float(stats["rollbacks"]),
            "fleet.controller.solves_per_replan": (
                stats["solves"] / replans if replans else 0.0),
            "fleet.wal.append_us": median_or_zero(
                tracer.durations("fleet.wal.append"), 1e6),
            "fleet.wal.records": float(stats["wal_records"]),
        })
        return metrics


WORKLOADS = {cls.name: cls for cls in (ServeHit, ServeChurn, ColdSymmetric,
                                       ColdBackend, FleetReplan)}
