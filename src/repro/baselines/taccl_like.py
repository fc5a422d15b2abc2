"""A TACCL-style two-phase synthesizer (the paper's main comparison point).

TACCL [27] splits synthesis into a *routing* phase (pick a path per chunk,
minimizing the most-loaded link) and a *scheduling* phase (order chunks on
the chosen links), with switches replaced by hyper-edges. The split is the
source of its sub-optimality: routing never sees timing (and ignores α
entirely), scheduling never revisits routes, and tie-breaking makes runs
non-deterministic. This re-implementation keeps precisely those properties:

* hyper-edge switch model (Appendix C semantics via
  :func:`repro.topology.to_hyper_edges`);
* routing = a small MILP choosing among k shortest paths per triple,
  minimizing the bottleneck link's transmission load (α-blind, copy-aware);
* scheduling = greedy earliest-slot booking over the chosen routes;
* a seed that perturbs routing costs and scheduling tie-breaks — different
  seeds can produce different schedules, and tight horizons can make the
  greedy fail (the paper's "X" infeasible marks in Figures 4-6).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.common import GreedyScheduler
from repro.collectives.demand import Demand
from repro.core.config import TecclConfig
from repro.core.epochs import build_epoch_plan, path_based_epoch_bound
from repro.core.schedule import Schedule
from repro.errors import InfeasibleError
from repro.solver import Model, Sense, SolverOptions, SolveStatus, VarType
from repro.topology.topology import Topology
from repro.topology.transforms import HyperEdgeTopology, to_hyper_edges


@dataclass
class TacclOutcome:
    """The result of one TACCL-like run (in hyper-edge space)."""

    schedule: Schedule
    topology: Topology
    demand: Demand
    solve_time: float
    routing_time: float
    scheduling_time: float
    finish_time: float
    hyper: HyperEdgeTopology
    seed: int


def taccl_like(topology: Topology, demand: Demand, config: TecclConfig, *,
               seed: int = 0, num_paths: int = 3,
               horizon_factor: float = 4.0,
               routing_time_limit: float = 120.0) -> TacclOutcome:
    """Run the two-phase heuristic; raises InfeasibleError like TACCL fails.

    The returned schedule lives in the hyper-edge-transformed topology
    (``outcome.topology``); compare against TE-CCL run with
    ``SwitchModel.HYPER_EDGE`` for the paper's apples-to-apples setup (§6.1).
    """
    start = time.perf_counter()
    hyper = to_hyper_edges(topology)
    work = hyper.topology
    old_to_new = {old: new for new, old in hyper.node_map.items()}
    remapped = Demand.from_triples(
        (old_to_new[s], c, old_to_new[d]) for s, c, d in demand.triples())
    remapped.validate(work)

    rng = random.Random(seed)
    t0 = time.perf_counter()
    routes = _route(work, remapped, config, rng, num_paths,
                    routing_time_limit)
    routing_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    schedule = _schedule(work, remapped, config, routes, rng, horizon_factor,
                         hyper_groups=hyper.groups)
    scheduling_time = time.perf_counter() - t0

    return TacclOutcome(
        schedule=schedule, topology=work, demand=remapped,
        solve_time=time.perf_counter() - start,
        routing_time=routing_time, scheduling_time=scheduling_time,
        finish_time=schedule.finish_time(work),
        hyper=hyper, seed=seed)


# ----------------------------------------------------------------------
# phase 1: routing
# ----------------------------------------------------------------------
def _route(topology: Topology, demand: Demand, config: TecclConfig,
           rng: random.Random, num_paths: int, time_limit: float,
           ) -> dict[tuple[int, int, int], list[int]]:
    """Pick one path per triple by a bottleneck-load MILP.

    Edge weight is the *transmission* time only — TACCL's routing does not
    model α, which is exactly why it mis-routes small transfers (§2.2).
    A small random perturbation per run reproduces its nondeterminism.
    """
    # imported here: this baseline is networkx's only user in the library
    import networkx as nx

    graph = nx.DiGraph()
    for (i, j), link in topology.links.items():
        jitter = 1.0 + 0.01 * rng.random()
        graph.add_edge(i, j, weight=(config.chunk_bytes / link.capacity)
                       * jitter)

    candidates: dict[tuple[int, int, int], list[list[int]]] = {}
    for s, c, d in demand.triples():
        gen = nx.shortest_simple_paths(graph, s, d, weight="weight")
        paths = []
        for path in gen:
            paths.append(path)
            if len(paths) >= num_paths:
                break
        candidates[(s, c, d)] = paths

    # columns: x (one per candidate path), then y (one per commodity-link
    # pair, in first-use order), then the bottleneck z
    counts = [len(paths) for paths in candidates.values()]
    first_x = dict(zip(candidates, np.cumsum([0] + counts).tolist()))
    # copy-aware link usage: commodity (s, c) pays a link once even if
    # several of its destinations route over it
    usage: dict[tuple, int] = {}
    use_x, use_y = [], []
    for triple, paths in candidates.items():
        s, c, _ = triple
        for p, path in enumerate(paths):
            for i, j in zip(path, path[1:]):
                use_x.append(first_x[triple] + p)
                use_y.append(usage.setdefault((s, c, i, j), len(usage)))
    model = Model("taccl-routing", sense=Sense.MINIMIZE)
    x = model.add_var_array(sum(counts), vtype=VarType.BINARY, name="x")
    y = model.add_var_array(len(usage), vtype=VarType.BINARY, name="y")
    z = model.add_var_array(1, name="z")
    # pick: every triple takes exactly one of its paths
    model.add_constr_coo(np.repeat(np.arange(len(counts)), counts), x,
                         np.ones(len(x)), 1.0, 1.0)
    # use: x <= y for every link on the path
    rows = np.arange(len(use_x))
    model.add_constr_coo(
        np.concatenate([rows, rows]), np.concatenate([x[use_x], y[use_y]]),
        np.concatenate([np.ones(len(rows)), -np.ones(len(rows))]),
        -np.inf, 0.0)
    # load: transmission time of everything on a used link <= z
    used = {key[2:] for key in usage}
    load_row = {link: row for row, link in enumerate(
        link for link in topology.links if link in used)}
    rows = np.arange(len(load_row))
    model.add_constr_coo(
        np.concatenate([[load_row[key[2:]] for key in usage], rows]),
        np.concatenate([y, np.broadcast_to(z, rows.shape)]),
        np.concatenate([[config.chunk_bytes / topology.links[key[2:]].capacity
                         for key in usage], -np.ones(len(rows))]),
        -np.inf, 0.0)
    model.set_objective_array(z, [1.0])
    result = model.solve(SolverOptions(time_limit=time_limit, mip_gap=0.05))
    if result.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError("TACCL-like routing found no solution",
                              status=result.status.value)
    result.require_solution()
    routes = {}
    for triple, paths in candidates.items():
        for p in range(len(paths)):
            if result.value(first_x[triple] + p) > 0.5:
                routes[triple] = paths[p]
                break
        else:
            raise InfeasibleError(f"no path chosen for {triple}")
    return routes


# ----------------------------------------------------------------------
# phase 2: scheduling
# ----------------------------------------------------------------------
class _HyperLedger:
    """Appendix C's switch budgets for the greedy scheduler.

    TACCL's model caps, per epoch, (1) the total active hyper-edges of one
    switch at min(in-degree, out-degree) and (2) each node to one outgoing
    and one incoming hyper-edge per switch.
    """

    def __init__(self, groups):
        self.limit: dict[int, int] = {}
        self.group_of: dict[tuple[int, int], int] = {}
        for group in groups:
            self.limit[group.switch] = group.usage_limit
            for edge in group.edges:
                self.group_of[edge] = group.switch
        self.total: dict[tuple[int, int], int] = {}
        self.out_used: dict[tuple[int, int, int], int] = {}
        self.in_used: dict[tuple[int, int, int], int] = {}

    def fits(self, src: int, dst: int, epoch: int) -> bool:
        switch = self.group_of.get((src, dst))
        if switch is None:
            return True
        return (self.total.get((switch, epoch), 0) < self.limit[switch]
                and self.out_used.get((switch, src, epoch), 0) < 1
                and self.in_used.get((switch, dst, epoch), 0) < 1)

    def reserve(self, src: int, dst: int, epoch: int) -> None:
        switch = self.group_of.get((src, dst))
        if switch is None:
            return
        self.total[(switch, epoch)] = self.total.get((switch, epoch), 0) + 1
        self.out_used[(switch, src, epoch)] = 1
        self.in_used[(switch, dst, epoch)] = 1


def _schedule(topology: Topology, demand: Demand, config: TecclConfig,
              routes: dict[tuple[int, int, int], list[int]],
              rng: random.Random, horizon_factor: float,
              hyper_groups=()) -> Schedule:
    """Greedy earliest-slot booking over the routed edges, copy-aware."""
    probe = build_epoch_plan(topology, config, num_epochs=1)
    bound = path_based_epoch_bound(topology, demand, probe, copy=False)
    max_epochs = max(4, int(bound * horizon_factor))
    plan = build_epoch_plan(topology, config, num_epochs=max_epochs)
    scheduler = GreedyScheduler(topology, plan, max_epochs)
    hyper_ledger = _HyperLedger(hyper_groups)

    # Per commodity, the set of directed edges its routes use (a copy ships
    # a chunk across an edge once, no matter how many destinations follow).
    edges: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for (s, c, _), path in routes.items():
        edge_set = edges.setdefault((s, c), set())
        edge_set.update(zip(path, path[1:]))
        scheduler.hold(s, c, s, 0)

    pending: list[tuple[tuple[int, int], tuple[int, int]]] = [
        (q, e) for q, es in edges.items() for e in sorted(es)]
    rng.shuffle(pending)

    progress = True
    while pending and progress:
        progress = False
        still: list[tuple[tuple[int, int], tuple[int, int]]] = []
        # book every edge whose tail already holds the chunk, earliest first
        ready_now = []
        for q, (i, j) in pending:
            ready = scheduler.ready_epoch(q[0], q[1], i)
            if ready is None:
                still.append((q, (i, j)))
            else:
                ready_now.append((ready, rng.random(), q, (i, j)))
        ready_now.sort()
        for ready, _, q, (i, j) in ready_now:
            epoch = scheduler.ledger.earliest(i, j, ready)
            while not hyper_ledger.fits(i, j, epoch):
                epoch = scheduler.ledger.earliest(i, j, epoch + 1)
            scheduler.ledger.reserve(i, j, epoch)
            hyper_ledger.reserve(i, j, epoch)
            scheduler.sends.append(
                _send(epoch, q[0], q[1], i, j))
            scheduler.hold(q[0], q[1], j,
                           epoch + plan.arrival_offset(i, j) + 1)
            progress = True
        pending = still
    if pending:
        raise InfeasibleError(
            f"TACCL-like scheduling stalled with {len(pending)} hops left "
            "(disconnected routes)", status="stalled")

    schedule = scheduler.to_schedule()
    _check_delivery(schedule, demand, plan)
    return schedule


def _send(epoch: int, source: int, chunk: int, src: int, dst: int):
    from repro.core.schedule import Send

    return Send(epoch=epoch, source=source, chunk=chunk, src=src, dst=dst)


def _check_delivery(schedule: Schedule, demand: Demand, plan) -> None:
    arrived: set[tuple[int, int, int]] = set()
    for send in schedule.sends:
        arrived.add((send.source, send.chunk, send.dst))
    for s, c, d in demand.triples():
        if (s, c, d) not in arrived:
            raise InfeasibleError(
                f"TACCL-like schedule never delivers ({s},{c}) to {d}",
                status="undelivered")
