"""The serve hit path: one per-topology facts memo, fragment-assembled
fingerprints and the cache's parsed-result tier.

Equivalence is pinned against un-memoised oracles (a per-request BFS
``canonicalize_demand`` lives in ``symmetry_oracle.py``, test-only;
fingerprints are recomputed through the public ``canonical_*_request`` →
``fingerprint_canonical`` path), soundness against mutation of the mutable
``Topology``, and the hit's cost by *call counts*, never timings.
"""

import collections
import subprocess
import sys
from pathlib import Path

import pytest
from symmetry_oracle import oracle_canonicalize_demand

from repro import collectives, obs, topology
from repro.core import TecclConfig, symmetry
from repro.core.solve import SynthesisResult
from repro.obs import recorder as flight
from repro.obs.explain import ExplainRecord
from repro.service import Planner, PlanRequest
from repro.service import fingerprint as fingerprinting
from repro.service.fingerprint import (canonical_near_request,
                                       canonical_request,
                                       fingerprint_canonical,
                                       fingerprint_request,
                                       near_fingerprint_request)
from repro.simulate import check_result
from repro.topology import Link, facts

UNIT = TecclConfig(chunk_bytes=1.0)


@pytest.fixture(autouse=True)
def _cold_memos():
    """Every test sees the process-wide memos empty."""
    facts._memo.clear()
    fingerprinting._demand_fragment.cache_clear()
    fingerprinting._remainder.cache_clear()
    yield


# ----------------------------------------------------------------------
# oracles: per-request derivations
# ----------------------------------------------------------------------
def oracle_fingerprints(request: PlanRequest) -> tuple[str, str]:
    key = dict(method=request.method, astar_config=request.astar_config,
               minimize_epochs=request.minimize_epochs)
    parts = (request.topology, request.demand, request.config)
    return (fingerprint_canonical(canonical_request(*parts, **key)),
            fingerprint_canonical(canonical_near_request(*parts, **key)))


FABRICS = {
    "ring8": lambda: topology.ring(8, capacity=1.0),
    "torus3x3": lambda: topology.torus2d(3, 3, capacity=1.0, alpha=0.0),
    "dgx1": topology.dgx1,
    "ring12": lambda: topology.ring(12, capacity=1.0),
    "ring16": lambda: topology.ring(16, capacity=1.0),
    "torus4x4": lambda: topology.torus2d(4, 4, capacity=1.0, alpha=0.0),
    "hypercube4": lambda: topology.hypercube(4),
    "full_mesh8": lambda: topology.full_mesh(8),
    "ndv2x2": lambda: topology.ndv2(2),
    "internal1x2": lambda: topology.internal1(2),
}
#: the unmarked subset; the rest of the sweep runs in the symmetry lane
QUICK = ("ring8", "torus3x3", "dgx1")
SWEEP = [name if name in QUICK
         else pytest.param(name, marks=pytest.mark.symmetry)
         for name in FABRICS]


def _demands(topo):
    gpus = topo.gpus
    yield collectives.alltoall(gpus, 1)
    yield collectives.allgather(gpus, 1)
    for root in gpus:
        others = [g for g in gpus if g != root]
        yield collectives.scatter(root, others, 1)
        yield collectives.broadcast(root, others, 1)
        yield collectives.gather(root, others, 1)


class TestMemoEqualsPerRequestDerivation:
    @pytest.mark.parametrize("name", SWEEP)
    def test_canonical_demand_and_sigma_identical(self, name):
        topo = FABRICS[name]()
        for demand in _demands(topo):
            want, want_sigma = oracle_canonicalize_demand(topo, demand)
            for _ in range(2):  # the scan, then the memoised answer
                got, sigma = symmetry.canonicalize_demand(topo, demand)
                assert got.triples() == want.triples()
                assert sigma == want_sigma
                assert (got is demand) == (want is demand)

    @pytest.mark.symmetry
    def test_truncated_closure_keeps_the_budget_and_visit_order(self):
        topo = topology.full_mesh(8)  # 8! automorphisms, budget 512
        entry, _ = facts.topology_facts(topo)
        symmetry.canonicalize_demand(
            topo, collectives.scatter(3, [0, 1, 2], 1))
        closure = entry.derive("closure", None)
        assert len(closure) == symmetry.CANONICAL_BFS_BUDGET
        assert closure[0] == tuple(range(8))
        assert len(set(closure)) == len(closure)

    @pytest.mark.parametrize("name", SWEEP)
    def test_fingerprints_equal_the_unmemoised_path(self, name):
        topo = FABRICS[name]()
        configs = (UNIT, TecclConfig(chunk_bytes=25e3, num_epochs=14))
        for i, demand in enumerate(_demands(topo)):
            request = PlanRequest(topology=topo, demand=demand,
                                  config=configs[i % 2],
                                  minimize_epochs=bool(i % 3))
            key = dict(method=request.method, astar_config=None,
                       minimize_epochs=request.minimize_epochs)
            parts = (topo, demand, request.config)
            for _ in range(2):  # first sight, then every fragment cached
                assert (fingerprint_request(*parts, **key),
                        near_fingerprint_request(*parts, **key)) \
                    == oracle_fingerprints(request)

    def test_unhashable_config_is_fingerprinted_afresh(self):
        # a priorities dict cannot key the remainder memo: same bytes,
        # serialised per call, and an edit to the dict is seen
        topo = topology.ring(4, capacity=1.0)
        demand = collectives.allgather(topo.gpus, 1)
        weights = {(0, 0, 1): 2.0}
        request = PlanRequest(
            topology=topo, demand=demand,
            config=TecclConfig(chunk_bytes=1.0, priorities=weights))
        before = fingerprint_request(topo, demand, request.config)
        assert (before, near_fingerprint_request(
            topo, demand, request.config)) == oracle_fingerprints(request)
        weights[(0, 0, 1)] = 3.0
        after = fingerprint_request(topo, demand, request.config)
        assert after != before
        assert after == oracle_fingerprints(request)[0]


# ----------------------------------------------------------------------
# content keys: mutation and JSON round trips
# ----------------------------------------------------------------------
class _Calls(collections.Counter):
    """Call counters patched over functions the hit must not reach."""

    def watch(self, monkeypatch, owner, name):
        original = getattr(owner, name)
        inner = getattr(original, "__func__", original)

        def counted(*args, **kwargs):
            self[name] += 1
            return inner(*args, **kwargs)

        patched = staticmethod(counted) \
            if isinstance(vars(owner).get(name), staticmethod) else counted
        monkeypatch.setattr(owner, name, patched)
        return self


@pytest.fixture
def calls(monkeypatch):
    watched = _Calls()
    for owner, name in ((symmetry, "find_generators"),
                        (symmetry, "_verify"),
                        (fingerprinting, "_normalize"),
                        (SynthesisResult, "from_dict"),
                        (SynthesisResult, "relabeled")):
        watched.watch(monkeypatch, owner, name)
    return watched


def _ring6_request(root=2, **kwargs):
    """Scatter from ``root`` on ring6, destinations in ring order — every
    root is a rotation of root 0, so the six requests share one entry."""
    topo = topology.ring(6, capacity=1.0)
    return PlanRequest(
        topology=topo, config=UNIT,
        demand=collectives.scatter(
            root, [(root + k) % 6 for k in range(1, 6)], 1), **kwargs)


def _expected_fingerprint(request):
    demand, _sigma = oracle_canonicalize_demand(request.topology,
                                                request.demand)
    return fingerprint_canonical(canonical_request(
        request.topology, demand, request.config))


class TestContentKeys:
    @pytest.mark.parametrize("mutate", [
        lambda topo: topo.add_link(0, 1, 0.5),
        lambda topo: topo.links.__setitem__((0, 1), Link(0, 1, 0.5)),
    ], ids=["add_link", "direct-links-write"])
    def test_mutated_topology_is_a_new_fabric(self, calls, mutate):
        request = _ring6_request()
        with Planner(executor="inline") as planner:
            before = planner.plan(request)
            assert before.fingerprint == _expected_fingerprint(request)
            calls.clear()
            mutate(request.topology)
            after = planner.plan(request)
        assert not after.cache_hit
        assert after.fingerprint != before.fingerprint
        # what a process that never saw the unedited fabric computes
        assert after.fingerprint == _expected_fingerprint(request)
        # generators were searched again, on the edited fabric: the
        # rotations the slow link breaks are gone (refinement alone proves
        # the group trivial, so no leaf is left to verify)
        assert calls["find_generators"] >= 1
        entry, known = facts.topology_facts(request.topology)
        assert known
        generators = entry.derive("generators", None)
        assert generators.order == 1
        assert all(symmetry.is_automorphism(request.topology, None, g.perm)
                   for g in generators)
        assert [1, 2, 3, 4, 5, 0] not in [list(g.perm) for g in generators]

    def test_memo_entries_are_snapshots(self):
        topo = topology.ring(6, capacity=1.0)
        entry, _ = facts.topology_facts(topo)
        topo.add_link(0, 1, 0.5)
        assert entry.topology.link(0, 1).capacity == 1.0
        assert facts.topology_facts(topo)[0] is not entry

    def test_json_round_trip_lands_on_the_same_entries(self, calls):
        topo = topology.torus2d(3, 3, capacity=1.0, alpha=0.0)
        request = PlanRequest(
            topology=topo, config=UNIT,
            demand=collectives.scatter(4, [0, 1, 2], 1))
        rebuilt = PlanRequest.from_dict(request.to_dict())
        # the builder's insertion order is not the serialised one
        assert list(rebuilt.topology.links) != list(topo.links)
        with Planner(executor="inline") as planner:
            cold = planner.plan(request)
            searches = calls["find_generators"]
            hit = planner.plan(rebuilt)
        assert hit.cache_hit and hit.fingerprint == cold.fingerprint
        assert calls["find_generators"] == searches
        assert calls["_verify"] > 0  # the counters do count

    def test_facts_memo_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(facts, "MAX_TOPOLOGIES", 2)
        counters = obs.get_registry().snapshot
        evicted = counters().get("topology_facts_evictions_total",
                                 {"value": 0})["value"]
        a, b, c = (topology.ring(n, capacity=1.0) for n in (4, 5, 6))
        entry_a = facts.topology_facts(a)[0]
        facts.topology_facts(b)
        assert facts.topology_facts(a) == (entry_a, True)  # a is fresh
        facts.topology_facts(c)                            # b goes
        assert facts.topology_facts(a) == (entry_a, True)
        assert facts.topology_facts(b)[1] is False
        assert counters()["topology_facts_evictions_total"]["value"] \
            == evicted + 2


# ----------------------------------------------------------------------
# the hit does no derivation
# ----------------------------------------------------------------------
class TestHitDoesNoDerivation:
    @pytest.mark.parametrize("root", [0, 2], ids=["as-solved", "collapsed"])
    def test_warm_hits_reach_none_of_the_derivations(self, calls, root):
        request = _ring6_request(root)
        with Planner(executor="inline") as planner:
            planner.plan(_ring6_request(0))  # the class's canonical member
            first_hit = planner.plan(request)  # parses, maybe relabels
            assert first_hit.cache_hit
            assert (first_hit.explain.symmetry_collapsed) == (root != 0)
            calls.clear()
            hits = [planner.plan(request) for _ in range(3)]
        assert all(h.cache_hit for h in hits)
        assert dict(calls) == {}
        assert all(h.result is first_hit.result for h in hits)

    def test_hit_builds_no_explain_document_without_a_flight_dir(
            self, monkeypatch, tmp_path):
        monkeypatch.delenv(flight.FLIGHT_DIR_ENV, raising=False)
        calls = _Calls().watch(monkeypatch, ExplainRecord, "to_dict")
        request = _ring6_request(2)
        with Planner(executor="inline") as planner:
            planner.plan(request)
            calls.clear()
            assert all(planner.plan(request).cache_hit for _ in range(3))
            assert calls["to_dict"] == 0
            flight.set_dump_dir(tmp_path)
            try:
                assert planner.plan(request).cache_hit
            finally:
                flight.set_dump_dir(None)
        assert calls["to_dict"] == 1  # for last_explain.json
        assert (tmp_path / flight.LAST_EXPLAIN_FILE).exists()

    def test_serving_a_hit_leaves_networkx_unloaded(self):
        # the TACCL-like baseline is its only user and imports it on use
        import repro

        src = str(Path(repro.__file__).parents[1])
        code = ("import sys\n"
                f"sys.path.insert(0, {src!r})\n"
                "import repro\n"
                "from repro import collectives, topology\n"
                "from repro.core import TecclConfig\n"
                "from repro.service import Planner, PlanRequest\n"
                "topo = topology.ring(4, capacity=1.0)\n"
                "request = PlanRequest(topology=topo,\n"
                "    demand=collectives.alltoall(topo.gpus, 1),\n"
                "    config=TecclConfig(chunk_bytes=1.0))\n"
                "with Planner(executor='inline') as planner:\n"
                "    planner.plan(request)\n"
                "    assert planner.plan(request).cache_hit\n"
                "assert 'networkx' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)

    def test_put_evict_and_lru_eviction_drop_the_parsed_result(
            self, calls, tmp_path):
        request = _ring6_request(0)
        other = PlanRequest(topology=topology.ring(5, capacity=1.0),
                            demand=collectives.scatter(0, [1, 2], 1),
                            config=UNIT)
        with Planner(executor="inline", cache_capacity=1,
                     cache_dir=tmp_path) as planner:
            fingerprint = planner.plan(request).fingerprint

            def parses_of_next_hit():
                calls.clear()
                assert planner.plan(request).cache_hit
                return calls["from_dict"]

            # an inline miss archives the solved result as the parsed form
            assert parses_of_next_hit() == 0
            assert parses_of_next_hit() == 0
            planner.cache.put(fingerprint, planner.cache.get(fingerprint))
            assert parses_of_next_hit() == 1   # put: a new entry
            planner.plan(other)                # capacity 1: LRU eviction
            assert parses_of_next_hit() == 1   # disk hit, parsed again
            assert parses_of_next_hit() == 0
            planner.cache.evict(fingerprint)
            assert not planner.plan(request).cache_hit
            assert parses_of_next_hit() == 0   # the re-solved entry

    def test_shared_result_survives_a_caller_reassigning_its_response(self):
        request = _ring6_request(2)
        with Planner(executor="inline", check_conformance=True) as planner:
            planner.plan(request)
            first = planner.plan(request)
            served = first.result
            first.result = None  # the response is the caller's, not ours
            second = planner.plan(request)
        assert second.cache_hit and second.conformant
        assert second.result is served
        assert check_result(second.result, config=request.config).ok

    def test_relabel_and_deserialize_are_on_the_serve_clock(self):
        request = _ring6_request(2)
        with Planner(executor="inline") as planner:
            planner.plan(_ring6_request(0))
            for response in (planner.plan(request), planner.plan(request)):
                assert response.cache_hit
                assert response.explain.symmetry_collapsed
                phases = response.explain.phases
                assert {"planner.deserialize", "planner.relabel"} \
                    <= set(phases)
                # the clock stops after the relabel-back, not before it
                assert response.serve_time >= phases["planner.relabel"] > 0
                assert response.explain.serve_time == response.serve_time
        # ... and the answer is in the caller's node ids
        assert response.result.demand_used.triples() \
            == request.demand.triples()


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
@pytest.mark.obs
class TestMemoObservability:
    NAMES = ("topology_facts_hits_total", "topology_facts_misses_total",
             "canonicalize_memo_hits_total", "canonicalize_memo_misses_total")

    def test_counters_and_span_attr(self):
        ring = obs.configure_recorder()
        request = _ring6_request(2)
        with Planner(executor="inline") as planner:
            stats_keys = set(planner.stats())

            def counts():
                snapshot = planner.alert_snapshot()
                return [snapshot.get(name, {"value": 0})["value"]
                        for name in self.NAMES]

            before = counts()
            planner.plan(request)
            planner.plan(request)
            assert [b - a for a, b in zip(before, counts())] == [1, 1, 1, 1]
            assert set(planner.stats()) == stats_keys
        attrs = [r["attrs"]["facts"] for r in ring.snapshot()
                 if r["name"] == "planner.canonicalize"]
        assert attrs == ["miss", "hit"]
