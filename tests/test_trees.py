"""Tests for the tree baselines (binomial, chain, double binary trees)."""

import math

import pytest

from repro import collectives, topology
from repro.baselines.trees import (LogicalTree, binomial_broadcast,
                                   binomial_tree, chain_tree,
                                   double_binary_trees,
                                   double_tree_broadcast, tree_allgather)
from repro.core import TecclConfig, solve_milp
from repro.core.epochs import plan_with_tau
from repro.errors import DemandError, TopologyError
from repro.simulate import check_schedule


def cfg(num_epochs=None, **kwargs):
    return TecclConfig(chunk_bytes=1.0, num_epochs=num_epochs, **kwargs)


class TestLogicalTree:
    def test_edges_bfs_order(self):
        tree = LogicalTree(root=0, children={0: (1, 2), 1: (3,), 2: (),
                                             3: ()})
        assert tree.edges_bfs() == [(0, 1), (0, 2), (1, 3)]

    def test_nodes_and_leaves(self):
        tree = LogicalTree(root=0, children={0: (1, 2), 1: (), 2: ()})
        assert tree.nodes == [0, 1, 2]
        assert tree.leaves() == [1, 2]

    def test_depth(self):
        tree = LogicalTree(root=0, children={0: (1,), 1: (2,), 2: ()})
        assert tree.depth() == 2
        assert LogicalTree(root=5, children={5: ()}).depth() == 0

    def test_cycle_rejected(self):
        with pytest.raises(TopologyError):
            LogicalTree(root=0, children={0: (1,), 1: (0,)})

    def test_unreachable_member_rejected(self):
        with pytest.raises(TopologyError):
            LogicalTree(root=0, children={0: (), 1: (2,), 2: ()})


class TestBinomialTree:
    def test_doubling_step_count(self):
        tree = binomial_tree(0, list(range(8)))
        # each BFS level t has 2^t senders; total depth = log2(8) = 3
        assert tree.depth() == 3
        assert sorted(tree.nodes) == list(range(8))

    def test_non_power_of_two(self):
        tree = binomial_tree(0, list(range(6)))
        assert sorted(tree.nodes) == list(range(6))
        # tree depth never exceeds the ceil(log2 N) doubling step count
        assert tree.depth() <= math.ceil(math.log2(6))

    def test_root_must_be_member(self):
        with pytest.raises(DemandError):
            binomial_tree(9, [0, 1, 2])

    def test_duplicate_members_rejected(self):
        with pytest.raises(DemandError):
            binomial_tree(0, [0, 1, 1])

    def test_two_members(self):
        tree = binomial_tree(3, [3, 7])
        assert tree.edges_bfs() == [(3, 7)]


class TestChainTree:
    def test_is_a_path(self):
        tree = chain_tree(2, [2, 0, 1])
        assert tree.edges_bfs() == [(2, 0), (0, 1)]
        assert tree.depth() == 2

    def test_root_must_be_member(self):
        with pytest.raises(DemandError):
            chain_tree(5, [0, 1])


class TestDoubleBinaryTrees:
    def test_complementary_leaf_property_even(self):
        tree_a, tree_b = double_binary_trees(list(range(8)))
        leaves_a = set(tree_a.leaves())
        leaves_b = set(tree_b.leaves())
        # every rank is a leaf in at most one tree
        assert not (leaves_a & leaves_b)

    def test_both_span_all_members(self):
        for n in (2, 3, 5, 8):
            tree_a, tree_b = double_binary_trees(list(range(n)))
            assert sorted(tree_a.nodes) == list(range(n))
            assert sorted(tree_b.nodes) == list(range(n))

    def test_logarithmic_depth(self):
        tree_a, _ = double_binary_trees(list(range(16)))
        assert tree_a.depth() <= math.ceil(math.log2(16)) + 1

    def test_too_few_members(self):
        with pytest.raises(DemandError):
            double_binary_trees([0])


class TestBroadcastSchedules:
    def test_binomial_broadcast_delivers(self, ring4):
        sched = binomial_broadcast(ring4, cfg(), root=0, num_chunks=2)
        demand = collectives.broadcast(0, ring4.gpus, 2)
        plan = plan_with_tau(ring4, 1.0, tau=1.0, num_epochs=sched.num_epochs)
        check_schedule(sched, ring4, demand, plan).raise_on_violation()

    def test_binomial_broadcast_through_switch(self, star3):
        sched = binomial_broadcast(star3, cfg(), root=0, num_chunks=1)
        demand = collectives.broadcast(0, star3.gpus, 1)
        plan = plan_with_tau(star3, 1.0, tau=1.0, num_epochs=sched.num_epochs)
        check_schedule(sched, star3, demand, plan).raise_on_violation()

    def test_double_tree_broadcast_delivers(self):
        topo = topology.full_mesh(6, capacity=1.0)
        sched = double_tree_broadcast(topo, cfg(), root=0, num_chunks=4)
        demand = collectives.broadcast(0, topo.gpus, 4)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=sched.num_epochs)
        check_schedule(sched, topo, demand, plan).raise_on_violation()

    def test_double_tree_requires_two_chunks(self, ring4):
        with pytest.raises(DemandError):
            double_tree_broadcast(ring4, cfg(), root=0, num_chunks=1)

    def test_milp_at_least_as_good_as_binomial(self, ring4):
        demand = collectives.broadcast(0, ring4.gpus, 1)
        tree_sched = binomial_broadcast(ring4, cfg(), root=0, num_chunks=1)
        opt = solve_milp(ring4, demand, cfg(8))
        assert opt.finish_time <= tree_sched.finish_time(ring4) + 1e-9


class TestTreeAllgather:
    def test_delivers_on_mesh(self):
        topo = topology.full_mesh(4, capacity=1.0)
        sched = tree_allgather(topo, cfg(), chunks_per_gpu=1)
        demand = collectives.allgather(topo.gpus, 1)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=sched.num_epochs)
        check_schedule(sched, topo, demand, plan).raise_on_violation()

    def test_delivers_on_dgx1(self, dgx1):
        config = TecclConfig(chunk_bytes=1e6)
        sched = tree_allgather(dgx1, config, chunks_per_gpu=1)
        demand = collectives.allgather(dgx1.gpus, 1)
        from repro.core.epochs import build_epoch_plan

        plan = build_epoch_plan(dgx1, config, num_epochs=sched.num_epochs)
        check_schedule(sched, dgx1, demand, plan).raise_on_violation()

    def test_milp_at_least_as_good(self, ring4, ag_ring4):
        tree_sched = tree_allgather(ring4, cfg(), chunks_per_gpu=1)
        opt = solve_milp(ring4, ag_ring4, cfg(8))
        assert opt.finish_time <= tree_sched.finish_time(ring4) + 1e-9
