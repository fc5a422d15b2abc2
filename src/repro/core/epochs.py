"""Epoch machinery: τ selection, per-link discretisation, horizon estimation.

Implements §5 ("Epoch durations and chunk sizes", "Number of epochs") and the
fastest-link mechanics of Appendix F. All formulations consume an
:class:`EpochPlan` — the per-link view of the world after time is discretised:

* ``cap_chunks``  — chunks the link carries per epoch (T·τ in paper units);
* ``occupancy``   — κ, epochs one chunk occupies the link (1 unless τ was set
  from a faster link, App. F);
* ``delay``       — ⌈α/τ⌉, extra epochs before the receiver may forward;
* ``arrival_offset`` — Δ = (κ−1) + ⌈α/τ⌉: a chunk sent at epoch k is in the
  receiver's buffer at the start of epoch k + Δ + 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.collectives.demand import Demand
from repro.core.config import EpochMode, TecclConfig
from repro.core.schedule import LinkTable
from repro.errors import InfeasibleError, ModelError
from repro.obs.metrics import get_registry as _default_registry
from repro.topology.topology import Topology

_EPS = 1e-9

#: §6: "In the cases where α > 200 × τ we increase the epoch duration by 5×
#: to avoid large models."
ALPHA_TAU_RATIO_LIMIT = 200.0
ALPHA_TAU_STRETCH = 5.0


@dataclass(frozen=True)
class EpochPlan:
    """Discretised time for one (topology, chunk size, τ) combination."""

    tau: float
    num_epochs: int
    chunk_bytes: float
    cap_chunks: dict[tuple[int, int], float]
    occupancy: dict[tuple[int, int], int]
    delay: dict[tuple[int, int], int]

    def arrival_offset(self, src: int, dst: int) -> int:
        """Δ: epochs between send start and presence in the receiver buffer."""
        key = (src, dst)
        return self.occupancy[key] - 1 + self.delay[key]

    @property
    def horizon(self) -> float:
        """Wall-clock length of the modelled window."""
        return self.tau * self.num_epochs

    def with_num_epochs(self, num_epochs: int) -> "EpochPlan":
        return EpochPlan(tau=self.tau, num_epochs=num_epochs,
                         chunk_bytes=self.chunk_bytes,
                         cap_chunks=self.cap_chunks,
                         occupancy=self.occupancy, delay=self.delay)

    def to_dict(self) -> dict:
        """JSON-ready representation; per-link rows sorted by (src, dst)."""
        return {
            "tau": self.tau,
            "num_epochs": self.num_epochs,
            "chunk_bytes": self.chunk_bytes,
            "links": [[src, dst, self.cap_chunks[(src, dst)],
                       self.occupancy[(src, dst)], self.delay[(src, dst)]]
                      for src, dst in sorted(self.cap_chunks)],
        }

    @staticmethod
    def from_dict(data: dict) -> "EpochPlan":
        """Parse the :meth:`to_dict` representation, rejecting malformed
        documents: duplicate ``links`` rows (silent last-wins would let a
        corrupted cache entry change a link's capacity), non-finite or
        non-positive capacities, and occupancy/delay outside their domains.
        """
        try:
            cap_chunks: dict[tuple[int, int], float] = {}
            occupancy: dict[tuple[int, int], int] = {}
            delay: dict[tuple[int, int], int] = {}
            for src, dst, cap, occ, dly in data["links"]:
                key = (int(src), int(dst))
                if key in cap_chunks:
                    raise ModelError(
                        f"duplicate links row for {key}")
                cap_f, occ_i, dly_i = float(cap), int(occ), int(dly)
                if not math.isfinite(cap_f) or cap_f <= 0:
                    raise ModelError(
                        f"link {key}: capacity {cap!r} must be a finite "
                        "positive number of chunks per epoch")
                if occ_i < 1:
                    raise ModelError(
                        f"link {key}: occupancy {occ!r} must be >= 1")
                if dly_i < 0:
                    raise ModelError(
                        f"link {key}: delay {dly!r} must be >= 0")
                cap_chunks[key] = cap_f
                occupancy[key] = occ_i
                delay[key] = dly_i
            tau = float(data["tau"])
            num_epochs = int(data["num_epochs"])
            chunk_bytes = float(data["chunk_bytes"])
            if not math.isfinite(tau) or tau <= 0:
                raise ModelError(f"tau {data['tau']!r} must be positive")
            if num_epochs < 1:
                raise ModelError("num_epochs must be at least 1")
            if not math.isfinite(chunk_bytes) or chunk_bytes <= 0:
                raise ModelError(
                    f"chunk_bytes {data['chunk_bytes']!r} must be positive")
            return EpochPlan(tau=tau, num_epochs=num_epochs,
                             chunk_bytes=chunk_bytes,
                             cap_chunks=cap_chunks, occupancy=occupancy,
                             delay=delay)
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed epoch plan document: {exc}") from exc


def epoch_duration(topology: Topology, chunk_bytes: float,
                   mode: EpochMode = EpochMode.FASTEST_LINK,
                   multiplier: float = 1.0) -> float:
    """Pick τ per §5: chunk time on the slowest or fastest link, times EM.

    Applies the paper's guard: while max α exceeds 200·τ, stretch τ by 5×
    (α dominates, a finer grid only bloats the model). The guard iterates —
    an α thousands of times τ needs several stretches before the grid stops
    being α-bloated; a single application (the ratio merely above 200) is
    bit-identical to one multiplication by 5.
    """
    if chunk_bytes <= 0:
        raise ModelError("chunk_bytes must be positive")
    times = [chunk_bytes / link.capacity for link in topology.links.values()]
    if not times:
        raise ModelError("topology has no links")
    base = max(times) if mode is EpochMode.SLOWEST_LINK else min(times)
    tau = base * multiplier
    if tau <= 0:
        raise ModelError(
            f"epoch duration collapsed to {tau} (multiplier {multiplier}, "
            f"base {base}); must be positive")
    while topology.max_alpha > ALPHA_TAU_RATIO_LIMIT * tau:
        tau *= ALPHA_TAU_STRETCH
    return tau


def build_epoch_plan(topology: Topology, config: TecclConfig,
                     num_epochs: int) -> EpochPlan:
    """Materialise the per-link discretisation for a fixed horizon."""
    tau = epoch_duration(topology, config.chunk_bytes, config.epoch_mode,
                         config.epoch_multiplier)
    return plan_with_tau(topology, config.chunk_bytes, tau, num_epochs)


def plan_with_tau(topology: Topology, chunk_bytes: float, tau: float,
                  num_epochs: int) -> EpochPlan:
    """Build a plan for an explicitly chosen τ."""
    if tau <= 0:
        raise ModelError("tau must be positive")
    if num_epochs < 1:
        raise ModelError("num_epochs must be at least 1")
    cap_chunks: dict[tuple[int, int], float] = {}
    occupancy: dict[tuple[int, int], int] = {}
    delay: dict[tuple[int, int], int] = {}
    for key, link in topology.links.items():
        per_epoch = link.capacity * tau / chunk_bytes
        cap_chunks[key] = per_epoch
        occupancy[key] = max(1, math.ceil(1.0 / per_epoch - _EPS))
        delay[key] = math.ceil(link.alpha / tau - _EPS) if link.alpha > 0 else 0
    return EpochPlan(tau=tau, num_epochs=num_epochs, chunk_bytes=chunk_bytes,
                     cap_chunks=cap_chunks, occupancy=occupancy, delay=delay)


# ----------------------------------------------------------------------
# reachability (used for variable tightening and for horizon estimation)
# ----------------------------------------------------------------------
#: earliest arrival of a node its source cannot reach, far beyond any horizon
UNREACHABLE = 1 << 30


@dataclass(frozen=True)
class Reachability:
    """Earliest arrivals from every node over the discretised graph.

    ``dist[s, n]`` is the first buffer epoch at which a chunk of source
    ``s`` can sit at ``n`` (:data:`UNREACHABLE` where it never can), with
    edge cost Δ + 1: send one epoch, appear in the buffer Δ epochs later.
    ``prev[s, n]`` is ``n``'s parent in ``s``'s shortest-path tree (-1 at
    ``s`` and where unreachable): of the predecessors on a shortest path,
    the one least in (distance, node id) — the one a Dijkstra that settles
    nodes in that order reaches ``n`` from first. ``src`` / ``dst`` /
    ``step`` are the links and their Δ + 1, in :class:`LinkTable` order.
    Every array is read-only: one instance serves every caller.
    """

    dist: np.ndarray
    prev: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    step: np.ndarray


def reachability(topology: Topology, plan: EpochPlan) -> Reachability:
    """The :class:`Reachability` of ``topology`` on ``plan``'s τ grid.

    Computed once per fabric content and per-link Δ (the horizon bound
    and the model builders of one solve share it), and keyed by that
    content, so a topology edited in place is simply a new key.
    """
    table = LinkTable(topology)
    occupancy, offset, _cap = table.plan_columns(plan)
    for row in np.flatnonzero(occupancy == 0)[:1].tolist():
        plan.arrival_offset(*table.links[row])  # raises KeyError
    ends = np.stack([table.src, table.dst, offset + 1], axis=1)
    return _reachability(topology.num_nodes, ends.tobytes())


@functools.lru_cache(maxsize=32)
def _reachability(n: int, ends: bytes) -> Reachability:
    src, dst, step = np.frombuffer(ends, dtype=np.int64).reshape(-1, 3).T
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    prev = np.full((n, n), -1, dtype=np.int64)
    if len(src):
        # links grouped by head: a relaxation is one gather, one min per head
        order = np.argsort(dst, kind="stable")
        tail, cost = src[order], step[order]
        heads, starts = np.unique(dst[order], return_index=True)
        # Bellman-Ford from every source at once: all-pairs distances
        # settle after (longest shortest path in links) + 1 sweeps
        while True:
            best = np.minimum(dist[:, heads], np.minimum.reduceat(
                dist[:, tail] + cost, starts, axis=1))
            if np.array_equal(best, dist[:, heads]):
                break
            dist[:, heads] = best
        # the tree parent: the tight predecessor least in (dist, id)
        none = np.iinfo(np.int64).max
        rank = np.where(dist[:, tail] + cost == dist[:, dst[order]],
                        dist[:, tail] * n + tail, none)
        parent = np.minimum.reduceat(rank, starts, axis=1)
        prev[:, heads] = np.where(parent < none, parent % n, -1)
    for array in (dist, prev, src, dst, step):
        array.setflags(write=False)
    return Reachability(dist=dist, prev=prev, src=src, dst=dst, step=step)


def earliest_arrival_epochs(topology: Topology,
                            plan: EpochPlan) -> np.ndarray:
    """All-pairs earliest arrival, in epochs, over the discretised graph:
    :attr:`Reachability.dist` (source by node, :data:`UNREACHABLE` where
    a node cannot be reached).

    Used to eliminate variables that cannot be non-zero (a chunk cannot
    reach node n before this bound) and to lower-bound the horizon.
    """
    return reachability(topology, plan).dist


def _subtree_totals(weight: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Per row, what each node's subtree holds of ``weight``, the node
    included, over that row's tree ``prev``: the mass is lifted one level
    per sweep until it sits at the roots."""
    rows, n = weight.shape
    parent = prev >= 0
    flat = (np.arange(rows)[:, None] * n + prev)[parent]
    total, moving = weight.copy(), weight
    while True:
        lifted = moving[parent]
        if not lifted.any():
            return total
        moving = np.bincount(flat, lifted, rows * n).reshape(rows, n)
        total += moving


def _spread_load(reach: Reachability, wanted: np.ndarray) -> np.ndarray:
    """Per link, the no-copy load of ``wanted`` (source by destination
    units) split evenly over *every* shortest-path predecessor, a node's
    share handed on once all its successors have reported, farthest
    first; summed over sources in source order."""
    dist, src, dst, step = reach.dist, reach.src, reach.dst, reach.step
    n, num_links = dist.shape[0], len(src)
    tight = (dist[:, src] + step == dist[:, dst]) & (dist[:, dst]
                                                     < UNREACHABLE)
    source, link = np.nonzero(tight)
    head, tail = dst[link], src[link]
    preds = np.bincount(source * n + head, minlength=n * n).reshape(n, n)
    level = dist[source, head]
    # farthest first; within a level by source, head, then link order
    order = np.lexsort((link, head, source, -level))
    source, link, head, tail, level = (
        source[order], link[order], head[order], tail[order], level[order])
    weight = wanted.copy()
    spread = np.zeros((n, num_links))
    bounds = np.flatnonzero(np.diff(level)) + 1
    for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, len(level)]):
        s, h = source[lo:hi], head[lo:hi]
        share = weight[s, h] / preds[s, h]
        spread[s, link[lo:hi]] = share
        np.add.at(weight, (s, tail[lo:hi]), share)
    return spread.sum(axis=0)


def path_based_epoch_bound(topology: Topology, demand: Demand,
                           plan: EpochPlan, *,
                           copy: bool | None = None) -> int:
    """Estimate the horizon K: longest shortest path + worst link queue.

    The first rung of :func:`horizon_ladder`, so the size every layer in
    front of the solver is built at. It is an estimate, not a bound: an
    optimal schedule may detour or hit a side constraint, and the ladder
    repairs an undershoot by re-solving at the next rung.

    Each source's demand is routed over shortest paths (in epoch units,
    :func:`reachability`) and the per-link load becomes a queueing delay
    at the link's rate. ``copy`` says whether the formulation it sizes may
    duplicate chunks (``None``: whenever the demand is multicast, what
    ``Method.AUTO`` solves; the LP never copies):

    * with copy, a commodity loads each link of its shortest-path tree
      once, however many destinations sit below it;
    * without copy, every destination is its own unit of load, routed two
      ways — along that one tree, and split evenly over *every*
      shortest-path predecessor (total chunk-hops / links on an
      edge-transitive fabric) — and the smaller queue is taken: the even
      split wins wherever there is path diversity, the single tree where
      link speeds differ and the fast links are the tree.

    Each branch queues a link at the rate of the formulation it sizes.
    Without copy that is the LP's capacity row, ``cap_chunks`` per epoch,
    fractional as the LP is (a 0.75 link carries 0.75). With copy it is the
    MILP's integral window, ``max(1, ⌊cap·κ⌋)`` chunks per κ epochs (the
    same link carries one chunk per two epochs). A unicast MILP is sized by
    the LP's rate, which is optimistic for it where ``cap·κ`` is not
    integral; the ladder repairs an undershoot.
    """
    if copy is None:
        copy = demand.benefits_from_copy()
    reach = reachability(topology, plan)
    dist, prev = reach.dist, reach.prev
    n = topology.num_nodes
    link_of = np.full((n, n), -1, dtype=np.int64)
    link_of[reach.src, reach.dst] = np.arange(len(reach.src))
    # one row per chunk (chunks of one destination set share routes)
    _keys, chunk_src, dests = demand.chunk_rows
    row, col = np.nonzero(dests >= 0)
    member = dests[row, col]
    wanted = np.zeros((n, n))
    np.add.at(wanted, (chunk_src[row], member), 1.0)
    lost = (wanted > 0) & (dist >= UNREACHABLE)
    if lost.any():
        s, d = np.argwhere(lost)[0].tolist()
        raise ModelError(f"destination {d} unreachable from source {s}")
    max_path = int(dist[wanted > 0].max(initial=0))

    def tree_load(weight, tree, once=False):
        total = _subtree_totals(weight, tree)
        row, node = np.nonzero((tree >= 0) & (total > 0))
        return np.bincount(link_of[tree[row, node], node],
                           None if once else total[row, node],
                           len(reach.src)).astype(np.float64)

    if copy:
        # a link with any of a chunk's destinations below it carries the
        # chunk once
        mark = np.zeros((len(chunk_src), n))
        mark[row, member] = 1.0
        loads = (tree_load(mark, prev[chunk_src], True),)
    else:
        loads = (tree_load(wanted, prev), _spread_load(reach, wanted))
    occupancy, _offset, cap = LinkTable(topology).plan_columns(plan)
    if copy:
        rate = np.maximum(1, np.floor(cap * occupancy + _EPS)) / occupancy
    else:
        rate = cap

    def queue(load):
        used = load > 0
        if not used.any():
            return 1
        return int(np.ceil(load[used] / rate[used] - _EPS).max())

    return max(2, max_path + min(map(queue, loads)))


def horizon_bound(topology: Topology, demand: Demand, config: TecclConfig,
                  *, copy: bool | None = None) -> int:
    """:func:`path_based_epoch_bound` on the configured τ grid."""
    probe = build_epoch_plan(topology, config, num_epochs=1)
    return path_based_epoch_bound(topology, demand, probe, copy=copy)


def next_horizon(num_epochs: int, bound: int | None) -> int:
    """One step up the retry ladder for infeasible auto horizons: double.

    Every rung starts at ``bound`` or above, so it decides nothing; the
    parameter stays for the ledger's staged replica, which passes it.
    """
    return num_epochs * 2


#: auto-horizon rungs tried at or above the bound before giving up
HORIZON_ATTEMPTS = 3


def horizon_ladder(topology: Topology, demand: Demand, config: TecclConfig,
                   *, stretch=None, copy: bool | None = None):
    """Yield ``(attempt, num_epochs)``: the horizons a solve tries in turn.

    The whole auto-horizon policy of the LP, MILP and POP facades: every
    layer in front of the solver scales with K, so the first rung is an
    estimate near the answer and an undershoot is repaired by re-solving
    at a larger K; :func:`first_feasible_rung` climbs it.

    * An explicit ``config.num_epochs`` is one attempt at that K.
    * Otherwise the first rung is the path bound for a formulation that
      copies or not (``copy``, see :func:`path_based_epoch_bound`) —
      ``stretch(bound)`` for callers whose sub-problems need more room
      than the joint bound (POP's capacity split) — each next rung is
      :func:`next_horizon`, and :data:`HORIZON_ATTEMPTS` rungs are
      tried: bound, 2·bound, 4·bound.
    """
    if config.num_epochs is not None:
        yield 1, config.num_epochs
        return
    bound = horizon_bound(topology, demand, config, copy=copy)
    if stretch is not None:
        bound = stretch(bound)
    num_epochs = bound
    for attempt in range(1, HORIZON_ATTEMPTS + 1):
        yield attempt, num_epochs
        num_epochs = next_horizon(num_epochs, bound)


def first_feasible_rung(ladder, solve_at):
    """Climb ``ladder`` until ``solve_at(num_epochs)`` succeeds.

    Returns ``(attempt, num_epochs, solve_at(num_epochs))`` for the first
    rung that does not raise a horizon :class:`InfeasibleError` (the
    builders' earliest-arrival pre-check, or an INFEASIBLE solve); the last
    rung's error is re-raised when the ladder runs out. Any other failure
    — a backend error, a time limit without an incumbent — is not a short
    horizon and propagates at once.

    Every climb counts one ``horizon_solves_total`` and every rung past the
    first one ``horizon_retries_total`` in the process registry: an
    undershooting estimate is a decision the ``horizon_retry_rate`` alert
    (:mod:`repro.obs.alerts`) watches.
    """
    registry = _default_registry()
    registry.counter("horizon_solves_total",
                     "Solves that climbed the horizon ladder").inc()
    retries = registry.counter(
        "horizon_retries_total",
        "Horizon rungs re-solved after an infeasible one")
    for attempt, num_epochs in ladder:
        if attempt > 1:
            retries.inc()
        try:
            return attempt, num_epochs, solve_at(num_epochs)
        except InfeasibleError as err:
            if err.status != "horizon":
                raise
            # without its traceback: the frames would pin the infeasible
            # model in memory while the next, larger one is built
            last_error = err.with_traceback(None)
    raise last_error
