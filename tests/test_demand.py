"""Unit tests for demand matrices, collective patterns, multi-tenant merge."""

import random

import pytest

from repro.collectives import (Demand, TenantDemand, allgather,
                               allreduce_phases, alltoall, broadcast, gather,
                               merge_tenants, reduce_scatter, scatter,
                               scatter_gather)
from repro.errors import DemandError
from repro.topology import ring, star


class TestDemand:
    def test_from_triples(self):
        d = Demand.from_triples([(0, 0, 1), (0, 0, 2), (1, 0, 0)])
        assert d.wants(0, 0, 1)
        assert d.wants(0, 0, 2)
        assert not d.wants(0, 0, 0)
        assert d.num_triples == 3
        assert d.num_commodities == 2

    def test_rejects_self_demand(self):
        with pytest.raises(DemandError):
            Demand.from_triples([(0, 0, 0)])

    def test_rejects_negative_chunk(self):
        with pytest.raises(DemandError):
            Demand.from_triples([(0, -1, 1)])

    def test_destinations(self):
        d = Demand.from_triples([(0, 0, 1), (0, 0, 2)])
        assert d.destinations(0, 0) == frozenset({1, 2})
        assert d.destinations(5, 0) == frozenset()

    def test_benefits_from_copy(self):
        multicast = Demand.from_triples([(0, 0, 1), (0, 0, 2)])
        unicast = Demand.from_triples([(0, 0, 1), (0, 1, 2)])
        assert multicast.benefits_from_copy()
        assert not unicast.benefits_from_copy()

    def test_chunks_of(self):
        d = Demand.from_triples([(0, 0, 1), (0, 2, 1), (0, 1, 2)])
        assert d.chunks_of(0) == [0, 1, 2]
        assert d.num_chunks(0) == 3

    @pytest.mark.parametrize("seed", range(8))
    def test_chunks_of_reads_the_index_like_a_scan(self, seed):
        rng = random.Random(seed)
        triples = [(s, rng.randrange(12), d)
                   for s in range(6) for d in range(6)
                   if s != d and rng.random() < 0.6]
        d = Demand.from_triples(triples)
        for source in range(8):   # 6 and 7 source nothing
            scan = sorted(c for s, c in d._wants if s == source)
            assert d.chunks_of(source) == scan
            assert d.num_chunks(source) == len(scan)

    def test_validate_against_topology(self):
        topo = star(3)  # hub id 3 is a switch
        ok = Demand.from_triples([(0, 0, 1)])
        ok.validate(topo)
        with pytest.raises(DemandError, match="switch"):
            Demand.from_triples([(0, 0, 3)]).validate(topo)
        with pytest.raises(DemandError, match="not in topology"):
            Demand.from_triples([(0, 0, 9)]).validate(topo)
        with pytest.raises(DemandError, match="empty"):
            Demand.empty().validate(topo)

    def test_without(self):
        d = allgather([0, 1, 2], 1)
        rest = d.without([(0, 0, 1)])
        assert not rest.wants(0, 0, 1)
        assert rest.num_triples == d.num_triples - 1

    def test_without_everything(self):
        d = Demand.from_triples([(0, 0, 1)])
        assert d.without([(0, 0, 1)]).is_empty()

    def test_union_disjoint_renumbers(self):
        a = Demand.from_triples([(0, 0, 1)])
        b = Demand.from_triples([(0, 0, 2)])
        merged, renames = a.union_disjoint(b)
        assert merged.num_triples == 2
        assert renames[(0, 0, 2)] == (0, 1, 2)
        assert merged.wants(0, 1, 2)

    def test_repr_mentions_copy(self):
        assert "copy=yes" in repr(allgather([0, 1, 2], 1))
        assert "copy=no" in repr(alltoall([0, 1, 2], 1))


class TestPatterns:
    def test_allgather_counts(self):
        d = allgather([0, 1, 2, 3], chunks_per_gpu=2)
        assert d.num_commodities == 8
        assert d.num_triples == 8 * 3
        assert d.benefits_from_copy()

    def test_alltoall_counts(self):
        d = alltoall([0, 1, 2], chunks_per_pair=2)
        # each source: 2 other GPUs x 2 chunks
        assert d.num_chunks(0) == 4
        assert d.num_triples == 3 * 2 * 2
        assert not d.benefits_from_copy()

    def test_alltoall_distinct_destinations(self):
        d = alltoall([0, 1, 2], 1)
        for s, c in d.commodities():
            assert len(d.destinations(s, c)) == 1

    def test_broadcast(self):
        d = broadcast(0, [0, 1, 2], num_chunks=3)
        assert d.sources == [0]
        assert d.num_triples == 6  # source removed from destinations

    def test_gather(self):
        d = gather(0, [1, 2], chunks_per_gpu=2)
        assert all(dst == {0} for dst in
                   (set(d.destinations(s, c)) for s, c in d.commodities()))

    def test_scatter_distinct_chunks(self):
        d = scatter(0, [1, 2, 3], chunks_per_dst=2)
        assert d.num_chunks(0) == 6
        assert not d.benefits_from_copy()

    def test_reduce_scatter_is_alltoall_shaped(self):
        assert reduce_scatter([0, 1, 2], 1).triples() == \
            alltoall([0, 1, 2], 1).triples()

    def test_allreduce_phases(self):
        rs, ag = allreduce_phases([0, 1, 2], 1)
        assert not rs.benefits_from_copy()
        assert ag.benefits_from_copy()

    def test_scatter_gather(self):
        d = scatter_gather(0, [0, 1, 2], num_chunks=1)
        # every non-root wants every root chunk
        assert d.wants(0, 0, 1) and d.wants(0, 0, 2)
        assert d.wants(0, 1, 1) and d.wants(0, 1, 2)

    def test_pattern_validation(self):
        with pytest.raises(DemandError):
            allgather([0], 1)
        with pytest.raises(DemandError):
            allgather([0, 0, 1], 1)
        with pytest.raises(DemandError):
            alltoall([0, 1], 0)
        with pytest.raises(DemandError):
            broadcast(0, [0])
        with pytest.raises(DemandError):
            gather(0, [0])
        with pytest.raises(DemandError):
            scatter_gather(5, [0, 1])


class TestMultiTenant:
    def test_merge_two_tenants(self):
        t1 = TenantDemand(allgather([0, 1], 1), priority=2.0, name="a")
        t2 = TenantDemand(alltoall([0, 1], 1), priority=1.0, name="b")
        merged, weights = merge_tenants([t1, t2])
        assert merged.num_triples == t1.demand.num_triples + \
            t2.demand.num_triples
        # tenant 1's triples keep priority 2
        assert weights[(0, 0, 1)] == 2.0
        # tenant 2's renamed triples carry priority 1
        assert 1.0 in set(weights.values())

    def test_merge_requires_tenants(self):
        with pytest.raises(DemandError):
            merge_tenants([])

    def test_priority_positive(self):
        with pytest.raises(DemandError):
            TenantDemand(allgather([0, 1], 1), priority=0.0)

    def test_three_tenants_disjoint_chunks(self):
        tenants = [TenantDemand(allgather([0, 1], 1), priority=float(i + 1))
                   for i in range(3)]
        merged, weights = merge_tenants(tenants)
        assert merged.num_chunks(0) == 3
        assert len(weights) == merged.num_triples
