"""Tests for the Blink-style spanning-tree packing baseline."""

import pytest

from repro import collectives, topology
from repro.baselines.blink_like import (blink_allgather, blink_broadcast,
                                        pack_arborescences, split_chunks)
from repro.core import TecclConfig, solve_milp
from repro.core.epochs import build_epoch_plan, plan_with_tau
from repro.errors import DemandError, TopologyError
from repro.simulate import check_schedule


def cfg(num_epochs=None, **kwargs):
    return TecclConfig(chunk_bytes=1.0, num_epochs=num_epochs, **kwargs)


class TestPacking:
    def test_single_tree_on_line(self, line3):
        trees = pack_arborescences(line3, 0, chunk_bytes=1.0)
        assert len(trees) == 1
        assert trees[0].covered_gpus(line3) == {0, 1, 2}

    def test_two_disjoint_trees_on_mesh(self):
        topo = topology.full_mesh(4, capacity=1.0)
        trees = pack_arborescences(topo, 0, chunk_bytes=1.0, max_trees=8)
        # a 4-mesh has out-degree 3 at the root: up to 3 arc-disjoint trees
        assert 2 <= len(trees) <= 3
        used: set[tuple[int, int]] = set()
        for tree in trees:
            arcs = set(tree.arcs)
            assert not (arcs & used), "trees must be arc-disjoint"
            used |= arcs

    def test_link_budget_allows_sharing(self, line3):
        trees = pack_arborescences(line3, 0, chunk_bytes=1.0,
                                   link_budget=2, max_trees=8)
        assert len(trees) == 2

    def test_max_trees_caps(self):
        topo = topology.full_mesh(4, capacity=1.0)
        trees = pack_arborescences(topo, 0, chunk_bytes=1.0, max_trees=1)
        assert len(trees) == 1

    def test_rate_is_bottleneck_capacity(self):
        topo = topology.Topology("het", num_nodes=3)
        topo.add_link(0, 1, capacity=4.0)
        topo.add_link(1, 2, capacity=1.0)
        topo.add_link(2, 0, capacity=8.0)
        trees = pack_arborescences(topo, 0, chunk_bytes=1.0)
        assert trees[0].rate == pytest.approx(1.0)

    def test_switch_root_rejected(self, star3):
        hub = next(iter(star3.switches))
        with pytest.raises(DemandError):
            pack_arborescences(star3, hub, chunk_bytes=1.0)

    def test_no_tree_raises(self):
        topo = topology.Topology("disc", num_nodes=3)
        topo.add_bidirectional(0, 1, 1.0)
        # node 2 reachable only via an incoming-only link pattern is invalid
        topo.add_link(2, 0, 1.0)
        topo.add_link(2, 1, 1.0)
        with pytest.raises(TopologyError):
            pack_arborescences(topo, 0, chunk_bytes=1.0)

    def test_trees_thread_switches(self, star3):
        trees = pack_arborescences(star3, 0, chunk_bytes=1.0)
        tree = trees[0]
        hub = next(iter(star3.switches))
        assert hub in tree.parent  # the hub must relay
        logical, paths = tree.to_logical(star3)
        assert sorted(logical.nodes) == star3.gpus
        for path in paths.values():
            assert path[0] in star3.gpus and path[-1] in star3.gpus


class TestSplitChunks:
    def test_proportional_split(self):
        assert split_chunks(4, [1.0, 1.0]) == [2, 2]
        assert split_chunks(3, [2.0, 1.0]) == [2, 1]

    def test_shares_sum_exactly(self):
        for n in (1, 5, 7):
            shares = split_chunks(n, [0.3, 0.5, 0.2])
            assert sum(shares) == n

    def test_zero_rate_rejected(self):
        with pytest.raises(DemandError):
            split_chunks(4, [1.0, 0.0])

    def test_zero_chunks_rejected(self):
        with pytest.raises(DemandError):
            split_chunks(0, [1.0])


class TestBlinkSchedules:
    def test_broadcast_delivers_on_mesh(self):
        topo = topology.full_mesh(4, capacity=1.0)
        sched = blink_broadcast(topo, cfg(), root=0, num_chunks=4)
        demand = collectives.broadcast(0, topo.gpus, 4)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=sched.num_epochs)
        check_schedule(sched, topo, demand, plan).raise_on_violation()

    def test_broadcast_through_switch(self, star3):
        sched = blink_broadcast(star3, cfg(), root=0, num_chunks=2)
        demand = collectives.broadcast(0, star3.gpus, 2)
        plan = plan_with_tau(star3, 1.0, tau=1.0, num_epochs=sched.num_epochs)
        check_schedule(sched, star3, demand, plan).raise_on_violation()

    def test_multi_tree_beats_single_tree_on_mesh(self):
        """Packing >1 tree must not be slower than the best single tree —
        Blink's core claim on multi-connected fabrics."""
        topo = topology.full_mesh(4, capacity=1.0)
        multi = blink_broadcast(topo, cfg(), root=0, num_chunks=6,
                                max_trees=3)
        single = blink_broadcast(topo, cfg(), root=0, num_chunks=6,
                                 max_trees=1)
        assert multi.finish_time(topo) <= single.finish_time(topo) + 1e-9

    def test_allgather_delivers_on_dgx1(self, dgx1):
        config = TecclConfig(chunk_bytes=1e6)
        sched = blink_allgather(dgx1, config, chunks_per_gpu=1, max_trees=2)
        demand = collectives.allgather(dgx1.gpus, 1)
        plan = build_epoch_plan(dgx1, config, num_epochs=sched.num_epochs)
        check_schedule(sched, dgx1, demand, plan).raise_on_violation()

    def test_milp_at_least_as_good(self, ring4, ag_ring4):
        blink = blink_allgather(ring4, cfg(), chunks_per_gpu=1)
        opt = solve_milp(ring4, ag_ring4, cfg(8))
        assert opt.finish_time <= blink.finish_time(ring4) + 1e-9
