"""Tree collectives: binomial and double-binary-tree baselines.

These are the hand-designed algorithms production libraries (MPI, NCCL) fall
back to when no synthesizer is available. They bracket TE-CCL from the other
side than the ring (:mod:`repro.baselines.ring`): trees minimise the number
of α-paying steps (log₂ N for a binomial broadcast) at the cost of leaving
most links idle in every step, while rings maximise bandwidth at the cost of
N−1 α-paying steps. TE-CCL's MILP subsumes both — the point of comparing
against them (§2.1, §7).

Logical tree edges are routed over the physical fabric along α+β shortest
paths and booked through the shared :class:`~repro.baselines.common
.GreedyScheduler`, so the resulting schedules validate under the same
simulator as every other synthesizer in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.common import GreedyScheduler
from repro.baselines.shortest_path import shortest_path
from repro.core.config import TecclConfig
from repro.core.epochs import build_epoch_plan, path_based_epoch_bound
from repro.core.schedule import Schedule
from repro.errors import DemandError, TopologyError
from repro.topology.topology import Topology


@dataclass(frozen=True)
class LogicalTree:
    """A rooted logical tree over GPU ids.

    ``children[u]`` lists u's children in send order. Physical routing is
    applied later — a logical edge may cross several fabric links.
    """

    root: int
    children: dict[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        seen = self._collect(self.root, set())
        declared = {self.root} | {
            c for kids in self.children.values() for c in kids}
        if seen != declared:
            raise TopologyError("logical tree has unreachable members")

    def _collect(self, node: int, seen: set[int]) -> set[int]:
        if node in seen:
            raise TopologyError(f"cycle through node {node} in logical tree")
        seen.add(node)
        for child in self.children.get(node, ()):
            self._collect(child, seen)
        return seen

    @property
    def nodes(self) -> list[int]:
        return sorted(self._collect(self.root, set()))

    def edges_bfs(self) -> list[tuple[int, int]]:
        """Logical (parent, child) edges in BFS order — the send order."""
        order: list[tuple[int, int]] = []
        frontier = [self.root]
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                for child in self.children.get(node, ()):
                    order.append((node, child))
                    nxt.append(child)
            frontier = nxt
        return order

    def depth(self) -> int:
        def rec(node: int) -> int:
            kids = self.children.get(node, ())
            return 1 + max((rec(c) for c in kids), default=-1)

        return rec(self.root)

    def leaves(self) -> list[int]:
        return sorted(n for n in self.nodes if not self.children.get(n))


def binomial_tree(root: int, members: list[int]) -> LogicalTree:
    """The ⌈log₂ N⌉-step binomial broadcast tree.

    In step t every node that already holds the data sends to one new node —
    the doubling pattern behind MPI_Bcast. Member order fixes which ranks
    pair up; pass fabric-aware orders to keep logical edges short.
    """
    if root not in members:
        raise DemandError(f"root {root} is not among the members")
    if len(set(members)) != len(members):
        raise DemandError("duplicate members")
    order = [root] + [m for m in members if m != root]
    children: dict[int, list[int]] = {m: [] for m in order}
    have = 1
    while have < len(order):
        senders = order[:have]
        for i, sender in enumerate(senders):
            target = have + i
            if target >= len(order):
                break
            children[sender].append(order[target])
        have = min(len(order), 2 * have)
    return LogicalTree(root=root,
                       children={u: tuple(v) for u, v in children.items()})


def chain_tree(root: int, members: list[int]) -> LogicalTree:
    """A degenerate pipeline tree (each node has one child) — the chain
    baseline NCCL uses for very large buffers, maximally pipelinable."""
    if root not in members:
        raise DemandError(f"root {root} is not among the members")
    order = [root] + [m for m in members if m != root]
    children = {order[i]: (order[i + 1],) for i in range(len(order) - 1)}
    children[order[-1]] = ()
    return LogicalTree(root=root, children=children)


def _btree_links(n: int, rank: int) -> tuple[int | None, list[int]]:
    """NCCL's in-order binary tree over ranks 0..n−1 (``ncclGetBtree``).

    Returns (parent, children) for one rank. Structural facts the
    double-tree trick relies on: rank 0 is the root with a single child,
    odd ranks are leaves, even ranks are internal.
    """
    if rank == 0:
        if n == 1:
            return None, []
        bit = 1
        while bit < n:
            bit <<= 1
        return None, [bit >> 1]
    bit = rank & -rank
    parent = (rank ^ bit) | (bit << 1)
    if parent >= n:
        parent = rank ^ bit
    lowbit = bit >> 1
    children = []
    if lowbit:
        children.append(rank - lowbit)
        down1 = rank + lowbit
        while lowbit and down1 >= n:
            lowbit >>= 1
            down1 = rank + lowbit
        if lowbit:
            children.append(down1)
    return parent, children


def _btree(n: int, position_of: list[int]) -> LogicalTree:
    """The NCCL btree over positions, relabelled to member ids."""
    children: dict[int, tuple[int, ...]] = {}
    for pos in range(n):
        _, kids = _btree_links(n, pos)
        children[position_of[pos]] = tuple(position_of[k] for k in kids)
    return LogicalTree(root=position_of[0], children=children)


def double_binary_trees(members: list[int]) -> tuple[LogicalTree, LogicalTree]:
    """NCCL-style complementary binary trees (``ncclGetDtree``).

    Tree A is the in-order binary tree over the member order (odd positions
    are leaves). Tree B shifts every rank by one (even count) or mirrors the
    order (odd count). With an even member count every rank is a leaf in
    exactly one tree, so streaming half the data down each tree uses every
    rank's send bandwidth — the double-binary-tree trick.
    """
    if len(members) < 2:
        raise DemandError("double binary trees need at least 2 members")
    if len(set(members)) != len(members):
        raise DemandError("duplicate members")
    members = list(members)
    n = len(members)
    tree_a = _btree(n, members)
    if n % 2 == 0:
        shifted = members[1:] + members[:1]
        tree_b = _btree(n, shifted)
    else:
        tree_b = _btree(n, list(reversed(members)))
    return tree_a, tree_b


# ----------------------------------------------------------------------
# physical scheduling of logical trees
# ----------------------------------------------------------------------
def _horizon(topology: Topology, config: TecclConfig,
             factor: float) -> tuple[object, int]:
    from repro.collectives.patterns import allgather

    probe = build_epoch_plan(topology, config, num_epochs=1)
    bound = path_based_epoch_bound(
        topology, allgather(topology.gpus, 1), probe, copy=False)
    max_epochs = max(8, int(bound * factor))
    return build_epoch_plan(topology, config, num_epochs=max_epochs), max_epochs


def schedule_tree_broadcast(topology: Topology, config: TecclConfig,
                            tree: LogicalTree, num_chunks: int = 1,
                            scheduler: GreedyScheduler | None = None,
                            source: int | None = None) -> Schedule:
    """Stream ``num_chunks`` chunks of the tree root down the tree.

    Sends are booked edge-major in BFS order so chunk c+1 pipelines behind
    chunk c on every logical edge. When a shared ``scheduler`` is passed
    (multi-tree packing) the returned schedule covers everything booked on
    it so far, not just this tree.
    """
    if num_chunks < 1:
        raise DemandError("num_chunks must be at least 1")
    if scheduler is None:
        plan, max_epochs = _horizon(topology, config,
                                    factor=4.0 * num_chunks)
        scheduler = GreedyScheduler(topology, plan, max_epochs)
    origin = tree.root if source is None else source
    for c in range(num_chunks):
        scheduler.hold(origin, c, tree.root, 0)
    paths = {(u, v): shortest_path(topology, u, v, config.chunk_bytes)
             for u, v in tree.edges_bfs()}
    for u, v in tree.edges_bfs():
        for c in range(num_chunks):
            scheduler.send_path(origin, c, paths[(u, v)])
    return scheduler.to_schedule()


def binomial_broadcast(topology: Topology, config: TecclConfig, root: int,
                       num_chunks: int = 1) -> Schedule:
    """Broadcast from ``root`` to every GPU via a binomial tree."""
    tree = binomial_tree(root, topology.gpus)
    return schedule_tree_broadcast(topology, config, tree, num_chunks)


def double_tree_broadcast(topology: Topology, config: TecclConfig, root: int,
                          num_chunks: int = 2) -> Schedule:
    """Broadcast splitting chunks across two complementary binary trees.

    Chunks are re-rooted: each tree's stream enters at its own root, fed by
    a relay hop from the true source when they differ (how NCCL grafts the
    rank-0 source onto both trees).
    """
    if num_chunks < 2:
        raise DemandError("double-tree broadcast needs at least 2 chunks")
    tree_a, tree_b = double_binary_trees(topology.gpus)
    plan, max_epochs = _horizon(topology, config, factor=4.0 * num_chunks)
    scheduler = GreedyScheduler(topology, plan, max_epochs)
    half = num_chunks // 2
    assignment = [(tree_a, range(0, half)), (tree_b, range(half, num_chunks))]
    for tree, chunks in assignment:
        for c in chunks:
            scheduler.hold(root, c, root, 0)
            if tree.root != root:
                scheduler.send_path(
                    root, c,
                    shortest_path(topology, root, tree.root,
                                  config.chunk_bytes))
        paths = {(u, v): shortest_path(topology, u, v, config.chunk_bytes)
                 for u, v in tree.edges_bfs()}
        for u, v in tree.edges_bfs():
            for c in chunks:
                if v == root:
                    continue  # the true source already has every chunk
                scheduler.send_path(root, c, paths[(u, v)])
    return scheduler.to_schedule()


def tree_allgather(topology: Topology, config: TecclConfig,
                   chunks_per_gpu: int = 1) -> Schedule:
    """ALLGATHER as N concurrent binomial broadcasts on a shared ledger.

    Each source broadcasts down its own binomial tree; contention between
    trees is resolved greedily, which is exactly the coordination failure
    TE-CCL's global optimisation avoids.
    """
    gpus = topology.gpus
    if len(gpus) < 2:
        raise DemandError("allgather needs at least 2 GPUs")
    plan, max_epochs = _horizon(
        topology, config, factor=6.0 * chunks_per_gpu * len(gpus))
    scheduler = GreedyScheduler(topology, plan, max_epochs)
    for s in gpus:
        # Rotate the member order so tree shapes differ per source and do
        # not all hammer the same links in the same step.
        rotation = gpus[gpus.index(s):] + gpus[:gpus.index(s)]
        tree = binomial_tree(s, rotation)
        for c in range(chunks_per_gpu):
            scheduler.hold(s, c, s, 0)
        paths = {(u, v): shortest_path(topology, u, v, config.chunk_bytes)
                 for u, v in tree.edges_bfs()}
        for u, v in tree.edges_bfs():
            for c in range(chunks_per_gpu):
                scheduler.send_path(s, c, paths[(u, v)])
    return scheduler.to_schedule()
