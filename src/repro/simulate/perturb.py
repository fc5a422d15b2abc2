"""Congestion-perturbation robustness: the paper's "unexplored avenue".

§6 "Unexplored avenues" concedes that "the effect of factors such as
congestion ... on the collective latency remains an unknown". This module
explores exactly that, within the α–β world the paper validates: a schedule
is synthesized against the *declared* fabric, then executed (continuous
time, per-link FIFO — :mod:`repro.simulate.events`) against many *perturbed*
fabrics where links are jittered and a random subset is congested. The
spread of finish times is the schedule's congestion sensitivity.

This keeps routes and send ordering fixed under perturbation — modelling a
static schedule meeting unexpected congestion, which is how MSCCL programs
actually behave (they cannot re-route at run time).
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from repro.collectives.demand import Demand
from repro.core.schedule import Schedule
from repro.errors import ModelError
from repro.simulate.events import run_events
from repro.topology.topology import Link, Topology


@dataclass(frozen=True)
class PerturbationModel:
    """How one congestion trial distorts the fabric.

    Attributes:
        beta_jitter: std-dev of the multiplicative capacity jitter applied
            to every link (lognormal-ish via clamped Gaussian).
        alpha_jitter: std-dev of the multiplicative α jitter.
        congested_fraction: fraction of links additionally slowed by
            ``congestion_factor`` (cross-tenant traffic on shared links).
        congestion_factor: capacity divisor on congested links (2 = half).
    """

    beta_jitter: float = 0.05
    alpha_jitter: float = 0.05
    congested_fraction: float = 0.0
    congestion_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.beta_jitter < 0 or self.alpha_jitter < 0:
            raise ModelError("jitter std-devs must be non-negative")
        if not 0 <= self.congested_fraction <= 1:
            raise ModelError("congested_fraction must be in [0, 1]")
        if self.congestion_factor < 1:
            raise ModelError("congestion_factor must be at least 1")


def perturbed_topology(topology: Topology, model: PerturbationModel,
                       seed: int = 0, *,
                       rng: random.Random | None = None) -> Topology:
    """One congestion trial: the fabric with jitter and slowdowns applied.

    Determinism contract: passing the same ``seed`` (or an ``rng`` in the
    same state) yields the same perturbed fabric. An explicit ``rng`` lets
    callers thread one generator through a whole scenario instead of
    re-seeding per call.
    """
    if rng is None:
        rng = random.Random(seed)
    links = sorted(topology.links)
    congested: set[tuple[int, int]] = set()
    if model.congested_fraction > 0:
        count = round(model.congested_fraction * len(links))
        congested = set(rng.sample(links, count))
    out = Topology(name=f"{topology.name}-congested-{seed}",
                   num_nodes=topology.num_nodes,
                   switches=topology.switches)
    for key in links:
        link = topology.links[key]
        cap_factor = max(0.1, rng.gauss(1.0, model.beta_jitter))
        alpha_factor = max(0.0, rng.gauss(1.0, model.alpha_jitter))
        capacity = link.capacity * cap_factor
        if key in congested:
            capacity /= model.congestion_factor
        out.links[key] = Link(key[0], key[1], capacity=capacity,
                              alpha=link.alpha * alpha_factor)
    return out


@dataclass(frozen=True)
class DriftModel:
    """Slow multiplicative random-walk drift of per-link capacity.

    Where :class:`PerturbationModel` draws independent jitter per trial,
    drift is *correlated over time*: each step multiplies every link's
    achieved-capacity factor by a small lognormal-ish nudge, so a link that
    wandered low stays low for a while — the shape the fleet estimator's
    EWMA and hysteresis are designed against.

    Attributes:
        sigma: std-dev of the per-step multiplicative nudge.
        floor: lowest factor the walk may reach (clamped).
        ceiling: highest factor the walk may reach (clamped).
    """

    sigma: float = 0.02
    floor: float = 0.25
    ceiling: float = 1.5

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ModelError("drift sigma must be non-negative")
        if not 0 < self.floor <= 1 <= self.ceiling:
            raise ModelError("drift needs 0 < floor <= 1 <= ceiling")


def drift_step(factors: dict[tuple[int, int], float], model: DriftModel,
               rng: random.Random) -> dict[tuple[int, int], float]:
    """Advance every link's capacity factor by one random-walk step.

    Links are visited in sorted order so the trace depends only on the
    ``rng`` state, never on dict insertion order.
    """
    out: dict[tuple[int, int], float] = {}
    for key in sorted(factors):
        nudged = factors[key] * max(0.0, rng.gauss(1.0, model.sigma))
        out[key] = min(model.ceiling, max(model.floor, nudged))
    return out


def drift_trace(topology: Topology, model: DriftModel, steps: int, *,
                rng: random.Random,
                ) -> list[dict[tuple[int, int], float]]:
    """A seeded per-link capacity-factor trace, one dict per step.

    This is the scenario generator behind the fleet telemetry's synthetic
    sources: two calls with generators seeded identically produce identical
    traces (regression-tested), so every adaptation experiment replays.
    """
    if steps < 1:
        raise ModelError("need at least one drift step")
    factors = {key: 1.0 for key in topology.links}
    trace = []
    for _ in range(steps):
        factors = drift_step(factors, model, rng)
        trace.append(dict(factors))
    return trace


@dataclass
class RobustnessReport:
    """Finish-time distribution of one schedule across congestion trials."""

    baseline: float
    times: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.times)

    @property
    def p50(self) -> float:
        return statistics.median(self.times)

    @property
    def p95(self) -> float:
        ordered = sorted(self.times)
        index = min(len(ordered) - 1, round(0.95 * (len(ordered) - 1)))
        return ordered[index]

    @property
    def worst(self) -> float:
        return max(self.times)

    @property
    def mean_slowdown(self) -> float:
        """Mean finish under congestion relative to the clean fabric."""
        return self.mean / self.baseline


def congestion_robustness(schedule: Schedule, topology: Topology,
                          demand: Demand, *, model: PerturbationModel,
                          trials: int = 20, seed: int = 0,
                          ) -> RobustnessReport:
    """Execute one fixed schedule across ``trials`` perturbed fabrics.

    The baseline is the same continuous-time execution on the clean
    fabric, so the reported slowdowns isolate the congestion effect from
    epoch-quantisation effects.
    """
    if trials < 1:
        raise ModelError("need at least one trial")
    baseline = run_events(schedule, topology, demand).finish_time
    report = RobustnessReport(baseline=baseline)
    for trial in range(trials):
        fabric = perturbed_topology(topology, model, seed=seed + trial)
        report.times.append(
            run_events(schedule, fabric, demand).finish_time)
    return report
