"""Chunk ids are labels.

The planner's canonical demand compares chunks by their ``(source,
destination set)`` rows and renumbers each source's chunks in row order, so
requests that differ only in node labels under a fabric automorphism, or in
per-source chunk ids, share one cache entry. A served answer is mapped back
through the node permutation *and* the per-source chunk map, and replayed
against what the caller asked for.
"""

import random

import pytest

from repro import collectives, topology
from repro.collectives.demand import Demand
from repro.core import TecclConfig, symmetry
from repro.core.solve import Method, synthesize
from repro.core.schedule import FlowSchedule
from repro.service import Planner, PlanRequest
from repro.simulate import check_result
from repro.topology import facts

UNIT = TecclConfig(chunk_bytes=1.0)


@pytest.fixture(autouse=True)
def _cold_memos():
    facts._memo.clear()
    yield


def _scatters(topo, config):
    return [PlanRequest(topo, collectives.scatter(
        root, [g for g in topo.gpus if g != root], 1), config)
        for root in topo.gpus]


def _shuffled(demand: Demand, seed: int) -> Demand:
    """``demand`` with each source's chunk ids permuted."""
    rng = random.Random(seed)
    ids = {}
    for s in demand.sources:
        chunks = demand.chunks_of(s)
        ids.update(zip(((s, c) for c in chunks),
                       rng.sample(chunks, len(chunks))))
    return Demand.from_triples((s, ids[s, c], d)
                               for s, c, d in demand.triples())


class TestOneEntryPerFamily:
    @pytest.mark.parametrize("fabric,config", [
        (lambda: topology.ring(8, capacity=1.0), UNIT),
        (topology.dgx1, TecclConfig(chunk_bytes=25e3)),
        (lambda: topology.internal2(4), TecclConfig(chunk_bytes=1e6)),
    ], ids=["ring8", "dgx1", "internal2x4"])
    def test_every_scatter_root_shares_one_entry(self, fabric, config):
        requests = _scatters(fabric(), config)
        with Planner(executor="inline", check_conformance=True) as planner:
            responses = [planner.plan(request) for request in requests]
            stats = planner.stats()
        assert len({r.fingerprint for r in responses}) == 1
        assert stats["solves"] == 1
        assert all(r.conformant for r in responses)
        for request, response in zip(requests, responses):
            assert response.result.demand_used == request.demand

    def test_permuted_chunk_ids_share_the_original_entry(self):
        topo = topology.dgx1()
        demand = collectives.alltoall(topo.gpus, 2)
        shuffled = _shuffled(demand, seed=3)
        assert shuffled != demand
        assert symmetry.canonicalize_demand(topo, shuffled)[0] \
            == symmetry.canonicalize_demand(topo, demand)[0]
        config = TecclConfig(chunk_bytes=25e3)
        with Planner(executor="inline", check_conformance=True) as planner:
            first = planner.plan(PlanRequest(topo, demand, config))
            served = planner.plan(PlanRequest(topo, shuffled, config))
        assert served.cache_hit and served.fingerprint == first.fingerprint
        assert served.explain.symmetry_collapsed and served.conformant
        assert served.result.demand_used == shuffled

    def test_canonical_demand_keeps_its_entry(self):
        topo = topology.ring(6, capacity=1.0)
        demand = collectives.scatter(0, [1, 2, 3, 4, 5], 1)
        canonical, back = symmetry.canonicalize(
            facts.topology_facts(topo)[0], demand)
        assert canonical is demand and back is None


class TestPerChunkAnswersMapBack:
    """An answer keyed by ``(source, chunk)`` — MILP sends, a per-chunk LP's
    flows — served across a chunk relabeling replays clean against the
    caller's demand, and only because its chunk ids are mapped too."""

    @pytest.mark.parametrize("method,demand", [
        (Method.MILP, Demand.from_triples(
            [(0, 0, 5), (0, 1, 4), (0, 2, 3), (0, 3, 2), (0, 4, 1)])),
        (Method.LP, Demand.from_triples(
            [(0, 0, 3), (0, 0, 4), (0, 1, 1), (0, 1, 2)])),
    ], ids=["milp-scatter", "lp-per-chunk"])
    def test_relabeled_answer_replays_against_the_caller(self, method,
                                                         demand):
        topo = topology.ring(6, capacity=1.0)
        request = PlanRequest(topo, demand, UNIT, method=method)
        canonical, back = symmetry.canonicalize(
            facts.topology_facts(topo)[0], demand)
        assert back is not None and back.perm == tuple(range(6))
        with Planner(executor="inline", check_conformance=True) as planner:
            planner.plan(PlanRequest(topo, canonical, UNIT, method=method))
            served = planner.plan(request)
            solved = planner.cache.entry(served.fingerprint).result()
        assert served.cache_hit and served.conformant
        result = served.result
        if method is Method.LP:
            assert isinstance(result.schedule, FlowSchedule)
            assert all(isinstance(key[0], tuple)
                       for key in result.schedule.flows)
        assert result.demand_used == demand
        assert check_result(result, topology=topo, demand=demand).ok
        # the node permutation alone leaves the chunks in canonical ids
        nodes_only = solved.relabeled(back.perm)
        assert not check_result(nodes_only, topology=topo,
                                demand=demand).ok


class TestPostCheckReplaysTheRequest:
    def test_a_result_describing_another_demand_is_refused(self):
        topo = topology.ring(6, capacity=1.0)
        others = [1, 2, 3, 4, 5]
        request = PlanRequest(topo, collectives.scatter(0, others, 1), UNIT)
        gather = collectives.gather(0, others, 1)
        with Planner(executor="inline", check_conformance=True) as planner:
            fingerprint = planner.plan(request).fingerprint
            # a self-consistent answer to another demand, under this key
            wrong = synthesize(topo, gather, UNIT)
            assert check_result(wrong).ok
            planner.cache.put(fingerprint, wrong.to_dict())
            served = planner.plan(request)
            stats = planner.stats()
        assert stats["conformance_failures"] == 1
        assert stats["solves"] == 2  # the entry was expelled and re-solved
        assert served.ok and not served.cache_hit
        assert served.result.demand_used == request.demand


class TestWaitPhase:
    def test_a_miss_times_its_wait_and_a_hit_does_not(self):
        request = _scatters(topology.ring(6, capacity=1.0), UNIT)[2]
        with Planner(executor="thread", max_workers=1) as planner:
            miss = planner.plan(request)
            hit = planner.plan(request)
        assert not miss.cache_hit and hit.cache_hit
        assert miss.explain.phases["planner.wait"] > 0
        assert "planner.wait" not in hit.explain.phases
