"""A capacity unit is not a new request.

A fabric whose capacities are all scaled by c, with α scaled by 1/c, is the
same epoch model with τ divided by c (§5). The planner fingerprints and
solves such a request in units of its fastest link and serves the answer
rescaled onto the caller's fabric — wherever the collapse is proved.
"""

import math
from dataclasses import replace

import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.config import EpochMode, SwitchModel
from repro.core.epochs import build_epoch_plan
from repro.core.solve import Method, SynthesisResult, synthesize
from repro.errors import ServiceError
from repro.fleet import (AdaptationController, FabricEstimator, FleetJob,
                         LinkEvent, SyntheticTelemetry)
from repro.service import Planner, PlanRequest
from repro.service.fingerprint import fingerprint_request, rescale_of
from repro.simulate import check_result
from repro.simulate.harness import random_instance
from repro.topology import Link, Topology, to_hyper_edges
from repro.topology.facts import topology_facts


def _times(topo: Topology, c: float) -> Topology:
    """``topo`` with every capacity × c and every α ÷ c."""
    out = Topology(name=f"{topo.name}-x{c:g}", num_nodes=topo.num_nodes,
                   switches=topo.switches)
    for (src, dst), link in topo.links.items():
        out.links[src, dst] = Link(src, dst, link.capacity * c,
                                   link.alpha / c)
    return out


def _hyper_request() -> PlanRequest:
    topo = topology.star(4, capacity=1.0, alpha=0.5, hub_is_switch=True)
    topo.add_link(0, 4, capacity=2.0, alpha=0.5)
    return PlanRequest(topo, collectives.alltoall(topo.gpus, 1),
                       TecclConfig(chunk_bytes=1.0,
                                   switch_model=SwitchModel.HYPER_EDGE))


def _cases():
    for c in (0.5, 0.775, 3.0):
        for seed, alpha, method, settings in (
                (4, True, Method.LP, {}),
                (4, False, Method.MILP, {}),
                (7, True, Method.LP,
                 {"epoch_mode": EpochMode.SLOWEST_LINK}),
                (7, True, Method.MILP, {"epoch_multiplier": 2.0}),
                (11, True, Method.AUTO, {"num_epochs": 12})):
            topo, demand, config = random_instance(seed)
            if not alpha:
                topo = topo.with_zero_alpha()
            yield (f"seed{seed}-{'alpha' if alpha else 'alpha0'}-"
                   f"{method.value}-{'-'.join(settings) or 'default'}-x{c:g}",
                   PlanRequest(topo, demand, replace(config, **settings),
                               method=method), c)
        yield f"hyper-x{c:g}", _hyper_request(), c


CASES = list(_cases())


def _work(request: PlanRequest) -> Topology:
    """The fabric a direct solve of ``request`` models."""
    if (request.config.switch_model is SwitchModel.HYPER_EDGE
            and request.topology.switches):
        return to_hyper_edges(request.topology).topology
    return request.topology


class TestDifferentialSweep:
    @pytest.mark.parametrize("base,c", [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_rescaled_twin_is_served_as_a_direct_solve(self, base, c):
        twin = replace(base, topology=_times(base.topology, c))
        with Planner(executor="inline", check_conformance=True) as planner:
            first = planner.plan(base)
            served = planner.plan(twin)
            stats = planner.stats()
        assert served.fingerprint == first.fingerprint
        assert served.cache_hit and stats["solves"] == 1
        # one of the two is not in units of its fastest link
        assert stats["scale_collapses"] >= 1 and served.conformant
        assert served.explain.scale == max(
            link.capacity for link in twin.topology.links.values())
        result = served.result
        work = _work(twin)
        assert result.topology_used.to_dict()["links"] \
            == work.to_dict()["links"]
        assert result.plan == build_epoch_plan(work, twin.config,
                                               result.plan.num_epochs)
        assert result.schedule.tau == result.plan.tau
        report = check_result(result, config=twin.config) \
            if work is not twin.topology else check_result(
                result, topology=twin.topology, demand=twin.demand,
                config=twin.config)
        assert report.ok, report.violations[:3]
        fresh = synthesize(twin.topology, twin.demand, twin.config,
                           method=twin.method)
        assert math.isclose(result.finish_time, fresh.finish_time,
                            rel_tol=1e-9)
        assert result.plan.num_epochs == fresh.plan.num_epochs


class TestNoCollapse:
    def test_non_uniform_scale_keeps_its_own_entry(self):
        topo = topology.ring(6, capacity=1.0)
        skewed = _times(topo, 0.5)
        skewed.add_link(0, 1, capacity=0.4)  # one link scaled unlike the rest
        config = TecclConfig(chunk_bytes=1.0)
        demand = collectives.alltoall(topo.gpus, 1)
        with Planner(executor="inline") as planner:
            first = planner.plan(PlanRequest(topo, demand, config))
            other = planner.plan(PlanRequest(skewed, demand, config))
            assert planner.stats()["solves"] == 2
        assert other.fingerprint != first.fingerprint
        assert not other.cache_hit

    def test_capacity_fn_stays_out(self):
        topo = topology.ring(4)
        config = TecclConfig(chunk_bytes=1e6,
                             capacity_fn=lambda link, epoch: 1.0)
        assert rescale_of(topology_facts(topo)[0], config) is None
        with pytest.raises(ServiceError, match="capacity_fn"):
            fingerprint_request(topo, collectives.alltoall(topo.gpus, 1),
                                config)

    def test_alpha_on_a_delay_boundary_keeps_its_own_entry(self):
        # α/τ is a hair above 2 + EPS, so ⌈α/τ⌉ = 3; in the fastest link's
        # units α rounds to 2 + EPS, whose delay is 2
        topo = topology.line(3, capacity=3.0,
                             alpha=(2.000000001 + 2e-12) / 3)
        config = TecclConfig(chunk_bytes=1.0)
        facts = topology_facts(topo)[0]
        assert rescale_of(facts, config) is None
        unit = facts.unit()[1].topology.copy()
        mine, theirs = (build_epoch_plan(fabric, config, 1)
                        for fabric in (topo, unit))
        assert mine.delay != theirs.delay  # what the proof refused
        demand = collectives.alltoall(topo.gpus, 1)
        with Planner(executor="inline", check_conformance=True) as planner:
            twin = planner.plan(PlanRequest(unit, demand, config))
            served = planner.plan(PlanRequest(topo, demand, config))
            stats = planner.stats()
        assert served.fingerprint != twin.fingerprint
        assert not served.cache_hit and stats["solves"] == 2
        assert stats["scale_collapses"] == 0 and served.explain.scale == 1.0
        assert served.conformant
        fresh = synthesize(topo, demand, config)
        assert served.result.plan == fresh.plan
        assert math.isclose(served.result.finish_time, fresh.finish_time,
                            rel_tol=1e-9)

    def test_capacity_on_a_budget_boundary_keeps_its_own_entry(self):
        # 2.5·r is a hair under 2 − EPS, so the slow links' window admits
        # 1 chunk; in the fastest link's units r rounds up and admits 2
        r = 0.8 - 4e-10 - 1.2e-13
        topo = topology.line(3, capacity=3.0)
        for key in ((1, 2), (2, 1)):
            topo.links[key] = Link(*key, 3.0 * r, 0.0)
        config = TecclConfig(chunk_bytes=1.0, epoch_multiplier=2.5)
        facts = topology_facts(topo)[0]
        assert rescale_of(facts, config) is None
        unit = facts.unit()[1].topology.copy()
        mine, theirs = (build_epoch_plan(fabric, config, 1)
                        for fabric in (topo, unit))
        assert (mine.occupancy, mine.delay) == (theirs.occupancy,
                                                theirs.delay)
        floors = [math.floor(plan.cap_chunks[1, 2] + 1e-9)
                  for plan in (mine, theirs)]
        assert floors == [1, 2]  # what the proof refused
        demand = collectives.alltoall(topo.gpus, 1)
        with Planner(executor="inline", check_conformance=True) as planner:
            twin = planner.plan(PlanRequest(unit, demand, config,
                                            method=Method.MILP))
            served = planner.plan(PlanRequest(topo, demand, config,
                                              method=Method.MILP))
            stats = planner.stats()
        assert served.fingerprint != twin.fingerprint
        assert not served.cache_hit and stats["solves"] == 2
        assert stats["scale_collapses"] == 0 and served.conformant

    def test_rounding_that_merges_link_values_keeps_its_own_entry(self):
        # two capacities 1e-14 apart round to one value in the fastest
        # link's units: the unit fabric would be more symmetric than this
        topo = topology.ring(4, capacity=3.0)
        topo.links[0, 1] = Link(0, 1, 3.0 * (1 - 1e-14), 0.0)
        facts = topology_facts(topo)[0]
        assert facts.unit() == (1.0, facts)
        assert rescale_of(facts, TecclConfig(chunk_bytes=1.0)) is None


class TestFleetCongestion:
    def test_uniform_congestion_replan_is_a_vetted_cache_hit(self):
        topo = topology.ring(6, capacity=1.0)
        events = [LinkEvent(at=2.0, link=key, factor=0.7, until=5.0)
                  for key in topo.links]
        planner = Planner(executor="inline")
        controller = AdaptationController(
            topo, SyntheticTelemetry(topo, events=events, seed=0), planner,
            estimator=FabricEstimator(topo, smoothing=1.0, min_samples=1))
        vets = []
        vet = controller._vet
        controller._vet = lambda result: vets.append(result) or vet(result)
        controller.add_job(FleetJob("a2a", collectives.alltoall(topo.gpus, 1),
                                    TecclConfig(chunk_bytes=1.0)))
        admitted = planner.stats()["solves"]
        replans = []
        for _ in range(4):
            replans += [d for d in controller.step() if d.action == "replan"]
            if replans:
                break
        planner.close()
        assert replans, "the congestion was not replanned"
        live = controller.estimator.live_topology()
        assert len({link.capacity for link in live.links.values()}) == 1
        assert next(iter(live.links.values())).capacity < 1.0
        assert planner.stats()["solves"] == admitted  # a cache hit
        assert planner.stats()["scale_collapses"] >= 1
        entry = controller.registry.active("a2a")
        assert entry.result in vets and entry.conformance_ok is True
        assert controller.stats()["rollbacks"] == 0
        assert entry.result.topology_used.to_dict()["links"] \
            == live.to_dict()["links"]
        assert check_result(entry.result, topology=live,
                            config=entry.result.config).ok


class TestInlineMiss:
    def test_one_to_dict_and_no_from_dict_per_miss(self, monkeypatch):
        calls = {"to_dict": 0, "from_dict": 0}
        to_dict, from_dict = SynthesisResult.to_dict, SynthesisResult.from_dict

        def counting_to_dict(self):
            calls["to_dict"] += 1
            return to_dict(self)

        def counting_from_dict(data):
            calls["from_dict"] += 1
            return from_dict(data)

        monkeypatch.setattr(SynthesisResult, "to_dict", counting_to_dict)
        monkeypatch.setattr(SynthesisResult, "from_dict",
                            staticmethod(counting_from_dict))
        topo = topology.ring(6, capacity=1.0)
        request = PlanRequest(topo, collectives.alltoall(topo.gpus, 1),
                              TecclConfig(chunk_bytes=1.0))
        with Planner(executor="inline") as planner:
            miss = planner.plan(request)
            assert calls == {"to_dict": 1, "from_dict": 0}
            hit = planner.plan(request)
        assert not miss.cache_hit and hit.cache_hit
        assert calls == {"to_dict": 1, "from_dict": 0}
        assert hit.result is miss.result and miss.result.outcome is None

