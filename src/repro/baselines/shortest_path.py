"""Shortest-path-first scheduling (the [31]-style baseline, §2.1).

Routes every demanded (source, chunk, destination) triple independently along
its α+β-shortest path and books link slots greedily. Two deliberate
weaknesses the paper calls out: it never copies (a multicast chunk is shipped
once per destination) and it never load-balances off the shortest path, so it
wastes bandwidth exactly where TE-CCL's MILP wins.
"""

from __future__ import annotations

import heapq

from repro.baselines.common import GreedyScheduler
from repro.collectives.demand import Demand
from repro.core.config import TecclConfig
from repro.core.epochs import build_epoch_plan, path_based_epoch_bound
from repro.core.schedule import Schedule
from repro.errors import InfeasibleError
from repro.topology.topology import Topology


def shortest_path(topology: Topology, src: int, dst: int,
                  chunk_bytes: float) -> list[int]:
    """The α + β·S shortest path as a node list (Dijkstra)."""
    out_adj, _ = topology.adjacency()
    dist: dict[int, float] = {src: 0.0}
    prev: dict[int, int] = {}
    heap = [(0.0, src)]
    while heap:
        cost, node = heapq.heappop(heap)
        if node == dst:
            break
        if cost > dist.get(node, float("inf")):
            continue
        for link in out_adj[node]:
            new = cost + link.transfer_time(chunk_bytes)
            if new < dist.get(link.dst, float("inf")):
                dist[link.dst] = new
                prev[link.dst] = node
                heapq.heappush(heap, (new, link.dst))
    if dst not in dist:
        raise InfeasibleError(f"no path from {src} to {dst}")
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def shortest_path_schedule(topology: Topology, demand: Demand,
                           config: TecclConfig,
                           horizon_factor: float = 8.0) -> Schedule:
    """Greedy shortest-path-first schedule for any demand.

    Args:
        horizon_factor: multiple of the no-copy path bound allowed before the
            greedy gives up (mirrors the baseline's lack of global planning).
    """
    demand.validate(topology)
    topology.validate()
    probe = build_epoch_plan(topology, config, num_epochs=1)
    bound = path_based_epoch_bound(topology, demand, probe, copy=False)
    max_epochs = max(4, int(bound * horizon_factor))
    plan = build_epoch_plan(topology, config, num_epochs=max_epochs)
    scheduler = GreedyScheduler(topology, plan, max_epochs)

    triples = sorted(demand.triples())
    for s, c, _ in triples:
        scheduler.hold(s, c, s, 0)
    # Longest paths first: the classic list-scheduling heuristic.
    routed = sorted(
        ((s, c, d, shortest_path(topology, s, d, config.chunk_bytes))
         for s, c, d in triples),
        key=lambda item: -len(item[3]))
    for s, c, d, path in routed:
        scheduler.send_path(s, c, path)
    return scheduler.to_schedule()
