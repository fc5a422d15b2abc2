"""Tests for the extended collectives (alltoallv, halo, hierarchical)."""

import pytest

from repro import collectives, topology
from repro.collectives import (alltoallv, halo_exchange,
                               hierarchical_allgather)
from repro.core import TecclConfig, solve_lp, solve_milp, synthesize
from repro.core.solve import Method
from repro.errors import DemandError
from repro.simulate import check_schedule


class TestAlltoallv:
    def test_uneven_counts(self):
        demand = alltoallv({(0, 1): 3, (0, 2): 1, (1, 0): 2})
        assert demand.num_chunks(0) == 4
        assert demand.num_chunks(1) == 2
        assert not demand.benefits_from_copy()

    def test_zero_pairs_allowed(self):
        demand = alltoallv({(0, 1): 1, (1, 0): 0})
        assert demand.num_triples == 1

    def test_validation(self):
        with pytest.raises(DemandError):
            alltoallv({(0, 0): 1})
        with pytest.raises(DemandError):
            alltoallv({(0, 1): -1})
        with pytest.raises(DemandError):
            alltoallv({})

    def test_moe_routing_solves(self, ring4):
        # skewed expert load: rank 0 receives most tokens
        demand = alltoallv({(1, 0): 3, (2, 0): 3, (3, 0): 1, (0, 1): 1})
        out = solve_lp(ring4, demand, TecclConfig(chunk_bytes=1.0))
        assert out.result.status.has_solution
        # rank 0's ingress (2 links) paces the skew: >= ceil(6/2) epochs
        assert out.finish_time >= 3.0 - 1e-9


class TestHaloExchange:
    def test_ring_halo(self):
        demand = halo_exchange([0, 1, 2, 3])
        # every rank sends to both neighbours
        assert demand.num_triples == 8
        assert not demand.benefits_from_copy()

    def test_open_chain(self):
        demand = halo_exchange([0, 1, 2], wrap=False)
        # ends have a single neighbour
        assert demand.num_triples == 4

    def test_validation(self):
        with pytest.raises(DemandError):
            halo_exchange([0])
        with pytest.raises(DemandError):
            halo_exchange([0, 1], chunks_per_neighbor=0)

    def test_halo_on_ring_is_one_epoch(self, ring4):
        demand = halo_exchange(ring4.gpus, 1)
        out = solve_lp(ring4, demand, TecclConfig(chunk_bytes=1.0))
        # neighbour exchange saturates each link exactly once
        assert out.finish_time == pytest.approx(1.0)


class TestHierarchicalAllgather:
    def test_phases_shape(self):
        intra, inter = hierarchical_allgather([[0, 1], [2, 3]], 1)
        # intra: each chassis pair exchanges
        assert intra.wants(0, 0, 1) and intra.wants(2, 0, 3)
        assert not intra.wants(0, 0, 2)  # no cross-chassis in phase 1
        # inter: leaders (0, 2) exchange their 2-chunk aggregates
        assert inter.wants(0, 0, 2) and inter.wants(0, 1, 2)
        assert inter.wants(2, 0, 0)

    def test_validation(self):
        with pytest.raises(DemandError):
            hierarchical_allgather([[0, 1]])
        with pytest.raises(DemandError):
            hierarchical_allgather([[0, 1], [1, 2]])
        with pytest.raises(DemandError):
            hierarchical_allgather([[0], [1]])

    def test_two_phase_schedule_on_internal2(self, internal2x2):
        groups = [[0, 1], [2, 3]]
        intra, inter = hierarchical_allgather(groups, 1)
        cfg = TecclConfig(chunk_bytes=1e6, num_epochs=12)
        phase1 = solve_milp(internal2x2, intra, cfg)
        check_schedule(phase1.schedule, internal2x2, intra,
                       phase1.plan).raise_on_violation()
        phase2 = solve_milp(internal2x2, inter, cfg)
        check_schedule(phase2.schedule, internal2x2, inter,
                       phase2.plan).raise_on_violation()
        # staging never beats the flat joint optimization (sanity anchor)
        flat = synthesize(internal2x2,
                          collectives.allgather(internal2x2.gpus, 1),
                          TecclConfig(chunk_bytes=1e6, num_epochs=16),
                          method=Method.MILP)
        staged = phase1.finish_time + phase2.finish_time \
            + phase1.finish_time
        assert staged >= flat.finish_time - 1e-9
