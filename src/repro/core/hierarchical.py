"""Hierarchical collective synthesis: divide by chassis, conquer by phase.

A third scaling lever besides the LP (§4.1) and A* (§4.2): exploit the
fabric's chassis structure the way production collectives do (NCCL's
hierarchical ALLREDUCE, TACCL's per-chassis sketches). An ALLGATHER over
``G`` chassis of ``g`` GPUs decomposes into three phases:

1. **local gather** — each chassis runs an internal ALLGATHER of its own
   chunks (G independent, laptop-sized MILPs that would be one big one);
2. **leader exchange** — one leader per chassis ALLGATHERs the chassis
   aggregates across the inter-chassis fabric;
3. **local broadcast** — each leader broadcasts the remote aggregates
   inside its chassis.

Phases are barriers; chassis within a phase run concurrently (their
subfabrics are disjoint up to shared uplinks, which phase-1/3 traffic does
not need). The price of the decomposition is the leader bottleneck — every
remote byte enters a chassis through one GPU — which is exactly the
suboptimality the flat formulations avoid; the ablation bench measures it.

The *solves* mirror the runtime concurrency: every per-chassis instance in
every phase is independent, so ``jobs`` fans the whole batch out on
threads (:func:`~repro.core.subsolve.run_subsolves`), and ``dedup=True``
canonicalizes each induced subfabric + demand through the service
fingerprint machinery and solves each distinct instance once — a symmetric
G-chassis fabric pays for 1 chassis solve instead of G per phase, with the
shared result remapped through each chassis's own :class:`_SubFabric` id
maps. Every dedup hit is vetted by replaying the shared schedule against
the hitting chassis's own fabric and demand through the trust gate
(:func:`~repro.simulate.conformance.vetted`); a replay violation falls
back to a private cold solve for that chassis.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.collectives.demand import Demand
from repro.collectives.patterns import allgather, broadcast
from repro.core.config import TecclConfig
from repro.core.solve import Method, SynthesisResult, synthesize
from repro.core.subsolve import SubSolveCache, run_subsolves
from repro.errors import DemandError, ServiceError, TopologyError
from repro.obs.trace import span as _obs_span
from repro.simulate import conformance
from repro.topology.topology import Topology


@dataclass(frozen=True)
class ChassisPlan:
    """One chassis: its GPUs (original ids) and the designated leader."""

    gpus: tuple[int, ...]
    leader: int

    def __post_init__(self) -> None:
        if self.leader not in self.gpus:
            raise DemandError(
                f"leader {self.leader} is not one of the chassis GPUs")


def chassis_groups(topology: Topology, gpus_per_chassis: int,
                   ) -> list[ChassisPlan]:
    """Slice the GPU id space into consecutive chassis (builder convention).

    Every builder in :mod:`repro.topology` numbers GPUs chassis-major, so
    consecutive slices recover the physical grouping. The first GPU of
    each chassis becomes the leader (the uplink-attached GPU in NDv2).
    """
    gpus = topology.gpus
    if gpus_per_chassis < 1 or len(gpus) % gpus_per_chassis:
        raise TopologyError(
            f"{len(gpus)} GPUs do not divide into chassis of "
            f"{gpus_per_chassis}")
    plans = []
    for start in range(0, len(gpus), gpus_per_chassis):
        members = tuple(gpus[start:start + gpus_per_chassis])
        plans.append(ChassisPlan(gpus=members, leader=members[0]))
    return plans


@dataclass(frozen=True)
class _SubFabric:
    """An induced subtopology plus the id maps to talk to it."""

    topology: Topology
    to_sub: dict[int, int]
    to_full: dict[int, int]


def _induce(topology: Topology, gpus: list[int], name: str) -> _SubFabric:
    """Induced subfabric on ``gpus`` plus every switch (with id maps)."""
    keep = sorted(set(gpus) | set(topology.switches))
    to_sub = {old: new for new, old in enumerate(keep)}
    sub = Topology(name=name, num_nodes=len(keep),
                   switches=frozenset(to_sub[s] for s in topology.switches))
    for (src, dst), link in topology.links.items():
        if src in to_sub and dst in to_sub:
            sub.add_link(to_sub[src], to_sub[dst], link.capacity, link.alpha)
    # Switches with no surviving links would fail validation; drop them.
    dead = [s for s in sub.switches
            if not sub.out_edges(s) and not sub.in_edges(s)]
    if dead:
        alive = [n for n in range(sub.num_nodes) if n not in dead]
        remap = {old: new for new, old in enumerate(alive)}
        rebuilt = Topology(
            name=name, num_nodes=len(alive),
            switches=frozenset(remap[s] for s in sub.switches
                               if s not in dead))
        for (src, dst), link in sub.links.items():
            rebuilt.add_link(remap[src], remap[dst], link.capacity,
                             link.alpha)
        old_keep = {to_sub[o]: o for o in keep}
        to_full = {remap[s]: old_keep[s] for s in alive}
        return _SubFabric(topology=rebuilt,
                          to_sub={o: remap[s] for o, s in to_sub.items()
                                  if s in remap},
                          to_full=to_full)
    return _SubFabric(topology=sub, to_sub=to_sub,
                      to_full={n: o for o, n in to_sub.items()})


@dataclass
class PhaseResult:
    """One synthesized phase on one subfabric.

    ``deduped`` marks results served from the sub-instance cache: the
    ``synthesis`` object is then *shared* with the phase that solved the
    identical instance, and this phase's own ``fabric`` id maps translate
    it back to full-fabric GPU ids.
    """

    label: str
    fabric: _SubFabric
    demand: Demand
    synthesis: SynthesisResult
    deduped: bool = False

    @property
    def finish_time(self) -> float:
        return self.synthesis.finish_time

    @property
    def solve_time(self) -> float:
        return self.synthesis.solve_time


@dataclass
class HierarchicalOutcome:
    """All three phases of a hierarchical ALLGATHER.

    Attributes:
        local_gather: one result per multi-GPU chassis (phase 1).
        leader_exchange: the single cross-chassis result (phase 2).
        local_broadcast: one result per multi-GPU chassis (phase 3).
        sub_solves: solver invocations actually paid for (after dedup).
        dedup_hits: phase instances served from an identical solve.
    """

    local_gather: list[PhaseResult]
    leader_exchange: PhaseResult
    local_broadcast: list[PhaseResult]
    sub_solves: int = 0
    dedup_hits: int = 0

    @property
    def finish_time(self) -> float:
        """Barrier composition: slowest chassis per phase, phases summed."""
        phase1 = max(p.finish_time for p in self.local_gather)
        phase3 = max(p.finish_time for p in self.local_broadcast)
        return phase1 + self.leader_exchange.finish_time + phase3

    @property
    def parallel_solve_time(self) -> float:
        """Critical-path solver time (chassis solves run concurrently)."""
        phase1 = max(p.solve_time for p in self.local_gather)
        phase3 = max(p.solve_time for p in self.local_broadcast)
        return phase1 + self.leader_exchange.solve_time + phase3

    @property
    def serial_solve_time(self) -> float:
        """As-if-sequential solver time: every phase instance summed.

        Deduped phases share one synthesis object, so its solve time is
        counted once per phase on purpose — this is the cost a sequential,
        dedup-free run would have paid, the baseline the speedup benches
        divide by.
        """
        return (sum(p.solve_time for p in self.local_gather)
                + self.leader_exchange.solve_time
                + sum(p.solve_time for p in self.local_broadcast))

    def phases(self) -> list[PhaseResult]:
        return (list(self.local_gather) + [self.leader_exchange]
                + list(self.local_broadcast))


def hierarchical_allgather(topology: Topology, config: TecclConfig, *,
                           chassis: list[ChassisPlan],
                           chunks_per_gpu: int = 1,
                           method: Method = Method.AUTO,
                           jobs: int | None = 1,
                           dedup: bool = True,
                           ) -> HierarchicalOutcome:
    """Synthesize an ALLGATHER hierarchically over the given chassis.

    Every phase is an independent TE-CCL synthesis with an automatically
    estimated horizon; chunk size is uniform across phases (the phase-2/3
    payloads are *more chunks*, not bigger ones, so one τ fits all).

    Args:
        jobs: fan every phase instance (all three phases are mutually
            independent solves) out on this many threads via
            :func:`~repro.core.subsolve.run_subsolves`; ``1`` solves them
            one after another, ``None`` uses the CPU count.
        dedup: solve each *distinct* sub-instance once, keyed by the
            service-layer canonical fingerprint of (subfabric, demand,
            config, method); identical chassis share the result. Hits are
            vetted by conformance replay against the hitting chassis's own
            fabric/demand and fall back to a private solve on violation.
            Automatically disabled when ``config.capacity_fn`` is set — a
            Python callable has no canonical form to hash.
    """
    _check_chassis(topology, chassis)
    if chunks_per_gpu < 1:
        raise DemandError("chunks_per_gpu must be at least 1")
    multi = [index for index, plan in enumerate(chassis)
             if len(plan.gpus) >= 2]
    if not multi:
        # fail before any solve is paid for, not after the leader exchange
        raise DemandError(
            "hierarchical synthesis needs at least one multi-GPU chassis")
    config = _auto_horizon(config)

    # ---- build every phase instance up front (no solves yet) ----------
    specs: list[tuple[str, _SubFabric, Demand]] = []
    for index in multi:
        plan = chassis[index]
        fabric = _induce(topology, list(plan.gpus), f"chassis-{index}")
        demand = allgather([fabric.to_sub[g] for g in plan.gpus],
                           chunks_per_gpu)
        specs.append((f"gather@{index}", fabric, demand))

    leaders = [plan.leader for plan in chassis]
    leader_fabric = _induce(topology, leaders, "leaders")
    # Each leader forwards exactly its own chassis aggregate: chunk
    # (leader, c) is the c-th chunk of that chassis's payload, wanted by
    # every other leader. Sizing every payload by the *largest* chassis
    # (the old uniform-allgather formula) modeled small-chassis leaders
    # forwarding chunks they do not have, inflating phase 2 and phase 3
    # on heterogeneous chassis.
    exchange_triples = []
    for plan in chassis:
        src = leader_fabric.to_sub[plan.leader]
        for c in range(len(plan.gpus) * chunks_per_gpu):
            for other in chassis:
                if other.leader != plan.leader:
                    exchange_triples.append(
                        (src, c, leader_fabric.to_sub[other.leader]))
    exchange_demand = Demand.from_triples(exchange_triples)
    specs.append(("leader-exchange", leader_fabric, exchange_demand))

    for index in multi:
        plan = chassis[index]
        fabric = _induce(topology, list(plan.gpus), f"chassis-{index}")
        # what arrives from outside: every *other* chassis's aggregate
        remote_chunks = sum(
            len(other.gpus) for j, other in enumerate(chassis)
            if j != index) * chunks_per_gpu
        demand = broadcast(fabric.to_sub[plan.leader],
                           [fabric.to_sub[g] for g in plan.gpus],
                           remote_chunks)
        specs.append((f"broadcast@{index}", fabric, demand))

    # ---- solve the whole batch: fan out, dedup by fingerprint ---------
    dedup_on = dedup and config.capacity_fn is None
    cache = SubSolveCache()
    stats = {"solves": 0, "hits": 0}
    verdicts: dict = {}
    stats_lock = threading.Lock()

    def solve_one(label: str, fabric: _SubFabric,
                  demand: Demand) -> tuple[SynthesisResult, bool]:
        phase_config = _on_subfabric(config, fabric)

        def cold() -> SynthesisResult:
            with stats_lock:
                stats["solves"] += 1
            with _obs_span("hier.phase", label=label,
                           gpus=len(fabric.topology.gpus)):
                return synthesize(fabric.topology, demand, phase_config,
                                  method=method)

        key = _phase_fingerprint(fabric.topology, demand, config,
                                 method) if dedup_on else None
        if key is None:
            return cold(), False
        synthesis, hit = cache.solve(key, cold)
        if not hit:
            return synthesis, False

        def replay(synthesis, simulate):
            # one replay per fingerprint, later hits reuse the verdict; a
            # hyper-transformed schedule replays in its own space
            with stats_lock:
                report = verdicts.get(key)
            if report is None:
                own = {} if synthesis.hyper is not None else {
                    "topology": fabric.topology, "demand": demand}
                report = simulate.check_result(synthesis, **own)
                with stats_lock:
                    verdicts[key] = report
            return report

        served = conformance.vetted("hier_dedup", synthesis, replay, cold)
        if served is synthesis:
            with stats_lock:
                stats["hits"] += 1
        return served, served is synthesis

    with _obs_span("hier.solve", chassis=len(chassis), instances=len(specs),
                   jobs=jobs, dedup=dedup_on) as span:
        solved = run_subsolves(
            [lambda s=spec: solve_one(*s) for spec in specs],
            jobs=jobs, label="hier")
        span.set_attr(sub_solves=stats["solves"], dedup_hits=stats["hits"])

    results = [PhaseResult(label=label, fabric=fabric, demand=demand,
                           synthesis=synthesis, deduped=hit)
               for (label, fabric, demand), (synthesis, hit)
               in zip(specs, solved)]
    return HierarchicalOutcome(
        local_gather=[r for r in results if r.label.startswith("gather@")],
        leader_exchange=next(r for r in results
                             if r.label == "leader-exchange"),
        local_broadcast=[r for r in results
                         if r.label.startswith("broadcast@")],
        sub_solves=stats["solves"],
        dedup_hits=stats["hits"])


def _on_subfabric(config: TecclConfig, fabric: _SubFabric) -> TecclConfig:
    """``config`` for a solve on ``fabric``'s renumbered nodes.

    ``capacity_fn`` is keyed by the caller's node ids, so every call the
    phase solve makes is mapped back through ``fabric.to_full`` (which
    also carries :func:`_induce`'s dead-switch remap).
    """
    capacity_fn = config.capacity_fn
    if capacity_fn is None:
        return config
    to_full = fabric.to_full
    return replace(config, capacity_fn=lambda src, dst, epoch: capacity_fn(
        to_full[src], to_full[dst], epoch))


def _phase_fingerprint(topology: Topology, demand: Demand,
                       config: TecclConfig, method: Method) -> str | None:
    """Canonical key for one phase instance; ``None`` when unhashable."""
    from repro.service.fingerprint import fingerprint_request

    try:
        return fingerprint_request(topology, demand, config, method=method)
    except ServiceError:
        return None


def _check_chassis(topology: Topology, chassis: list[ChassisPlan]) -> None:
    if len(chassis) < 2:
        raise DemandError("hierarchical synthesis needs at least 2 chassis")
    seen: set[int] = set()
    for plan in chassis:
        members = set(plan.gpus)
        if members & seen:
            raise DemandError("chassis overlap: "
                              f"{sorted(members & seen)}")
        seen |= members
    gpus = set(topology.gpus)
    if seen != gpus:
        raise DemandError(
            f"chassis cover {len(seen)} GPUs but the fabric has "
            f"{len(gpus)}")


def _auto_horizon(config: TecclConfig) -> TecclConfig:
    """Phases size their own horizons; a user K meant for the flat problem
    would be wrong for every phase."""
    from dataclasses import replace

    if config.num_epochs is None:
        return config
    return replace(config, num_epochs=None)
