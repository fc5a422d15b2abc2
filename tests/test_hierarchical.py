"""Tests for hierarchical (chassis-decomposed) synthesis."""

import pytest

from repro import collectives, topology
from repro.core import (EpochMode, Method, TecclConfig, chassis_groups,
                        hierarchical_allgather, synthesize)
from repro.core.hierarchical import ChassisPlan, _induce
from repro.errors import DemandError, TopologyError
from repro.simulate import check_schedule
from repro.solver import SolverOptions


def cfg(**kwargs):
    return TecclConfig(chunk_bytes=1e6,
                       solver=SolverOptions(mip_gap=0.2, time_limit=30),
                       **kwargs)


class TestChassisGroups:
    def test_consecutive_slices(self):
        topo = topology.internal2(3)
        plans = chassis_groups(topo, 2)
        assert len(plans) == 3
        assert plans[0].gpus == (0, 1)
        assert plans[0].leader == 0

    def test_indivisible_rejected(self):
        topo = topology.internal2(3)
        with pytest.raises(TopologyError):
            chassis_groups(topo, 4)

    def test_leader_must_be_member(self):
        with pytest.raises(DemandError):
            ChassisPlan(gpus=(0, 1), leader=5)


class TestInduce:
    def test_chassis_subfabric_keeps_local_links(self):
        topo = topology.ndv2(2)
        fabric = _induce(topo, list(range(8)), "c0")
        # all 32 intra-chassis NVLinks survive; the uplink switch keeps
        # only this chassis's two uplink pairs
        sub_gpu_links = [
            (a, b) for (a, b) in fabric.topology.links
            if not fabric.topology.is_switch(a)
            and not fabric.topology.is_switch(b)]
        assert len(sub_gpu_links) == 32

    def test_id_maps_are_inverse(self):
        topo = topology.internal2(2)
        fabric = _induce(topo, [0, 1], "c0")
        for old, new in fabric.to_sub.items():
            assert fabric.to_full[new] == old

    def test_dead_switch_dropped(self):
        # inducing on one GPU pair of a leaf-spine drops unreachable spines
        topo = topology.leaf_spine(2, 2, 1)
        fabric = _induce(topo, [0, 1], "pod0")
        fabric.topology.validate()


class TestHierarchicalAllgather:
    def test_phases_and_composition(self):
        topo = topology.internal2(2)
        plans = chassis_groups(topo, 2)
        out = hierarchical_allgather(topo, cfg(), chassis=plans)
        assert len(out.local_gather) == 2
        assert len(out.local_broadcast) == 2
        assert out.finish_time > 0
        assert out.parallel_solve_time <= out.serial_solve_time + 1e-12
        expected = (max(p.finish_time for p in out.local_gather)
                    + out.leader_exchange.finish_time
                    + max(p.finish_time for p in out.local_broadcast))
        assert out.finish_time == pytest.approx(expected)

    def test_every_phase_schedule_verifies(self):
        topo = topology.internal2(2)
        plans = chassis_groups(topo, 2)
        out = hierarchical_allgather(topo, cfg(), chassis=plans,
                                     method=Method.MILP)
        for phase in out.phases():
            schedule = phase.synthesis.schedule
            check_schedule(schedule, phase.fabric.topology, phase.demand,
                           phase.synthesis.plan).raise_on_violation()

    def test_never_beats_flat_optimum(self):
        """The leader bottleneck must cost something (or tie)."""
        topo = topology.internal2(2)
        plans = chassis_groups(topo, 2)
        hier = hierarchical_allgather(topo, cfg(), chassis=plans)
        flat = synthesize(topo, collectives.allgather(topo.gpus, 1),
                          cfg(), method=Method.MILP)
        assert hier.finish_time >= flat.finish_time - 1e-9

    def test_explicit_leaders(self):
        topo = topology.internal2(2)
        plans = [ChassisPlan(gpus=(0, 1), leader=1),
                 ChassisPlan(gpus=(2, 3), leader=3)]
        out = hierarchical_allgather(topo, cfg(), chassis=plans)
        assert out.finish_time > 0

    def test_overlapping_chassis_rejected(self):
        topo = topology.internal2(2)
        plans = [ChassisPlan(gpus=(0, 1), leader=0),
                 ChassisPlan(gpus=(1, 2, 3), leader=1)]
        with pytest.raises(DemandError):
            hierarchical_allgather(topo, cfg(), chassis=plans)

    def test_partial_cover_rejected(self):
        topo = topology.internal2(2)
        plans = [ChassisPlan(gpus=(0, 1), leader=0),
                 ChassisPlan(gpus=(2,), leader=2)]
        with pytest.raises(DemandError):
            hierarchical_allgather(topo, cfg(), chassis=plans)

    def test_single_chassis_rejected(self):
        topo = topology.internal2(2)
        plans = [ChassisPlan(gpus=tuple(topo.gpus), leader=0)]
        with pytest.raises(DemandError):
            hierarchical_allgather(topo, cfg(), chassis=plans)

    def test_user_horizon_is_ignored_per_phase(self):
        """A flat-problem K must not poison the phase solves."""
        topo = topology.internal2(2)
        plans = chassis_groups(topo, 2)
        out = hierarchical_allgather(topo, cfg(num_epochs=3), chassis=plans)
        assert out.finish_time > 0

    def test_capacity_fn_sees_the_callers_node_ids(self):
        """Each phase solves on renumbered nodes; the hook must still be
        asked about the caller's links, in every chassis."""
        topo = topology.ndv2(2)
        seen = set()

        def capacity(src, dst, epoch):
            seen.add((src, dst))
            link = topo.links.get((src, dst))
            return 1.0 if link is None else link.capacity

        hierarchical_allgather(
            topo, cfg(epoch_mode=EpochMode.SLOWEST_LINK,
                      capacity_fn=capacity),
            chassis=chassis_groups(topo, 8), method=Method.LP)
        assert seen and seen <= set(topo.links)
        for chassis in (range(0, 8), range(8, 16)):
            assert any(src in chassis and dst in chassis
                       for src, dst in seen)


def _heterogeneous_plans():
    """3+2+1 chassis over internal2(3)'s six GPUs (unequal on purpose)."""
    return [ChassisPlan(gpus=(0, 1, 2), leader=0),
            ChassisPlan(gpus=(3, 4), leader=3),
            ChassisPlan(gpus=(5,), leader=5)]


class TestHeterogeneousChassisPayloads:
    """Regression: exchange/broadcast demand sized per chassis, not by max.

    The old formulas sized *every* leader's exchange payload by the
    largest chassis (``max(len(plan.gpus))``) and broadcast
    ``(G-1) * that`` into every chassis — leaders of smaller chassis were
    modeled forwarding chunks they do not have.
    """

    def test_exchange_payload_matches_each_chassis(self):
        topo = topology.internal2(3)
        out = hierarchical_allgather(topo, cfg(), chassis=_heterogeneous_plans())
        exchange = out.leader_exchange
        per_leader = {
            exchange.fabric.to_full[source]:
                len(exchange.demand.chunks_of(source))
            for source in exchange.demand.sources}
        # leader 0 fronts 3 GPUs, leader 3 fronts 2, leader 5 fronts 1
        assert per_leader == {0: 3, 3: 2, 5: 1}

    def test_broadcast_payload_is_sum_of_other_chassis(self):
        topo = topology.internal2(3)
        out = hierarchical_allgather(topo, cfg(), chassis=_heterogeneous_plans())
        remote = {}
        for phase in out.local_broadcast:
            (source,) = phase.demand.sources
            remote[phase.label] = len(phase.demand.chunks_of(source))
        # chassis 0 receives the 2+1 foreign chunks, chassis 1 the 3+1;
        # the single-GPU chassis has no local broadcast at all
        assert remote == {"broadcast@0": 3, "broadcast@1": 4}
        assert len(out.local_broadcast) == 2

    def test_strictly_faster_than_old_uniform_formula(self):
        from repro.collectives.patterns import allgather, broadcast
        from repro.core.hierarchical import _induce

        topo = topology.internal2(3)
        plans = _heterogeneous_plans()
        config = TecclConfig(chunk_bytes=1e6,
                             solver=SolverOptions(mip_gap=0.0,
                                                  time_limit=60))
        out = hierarchical_allgather(topo, config, chassis=plans)

        # reconstruct the old formula's phase 2/3 demands: a uniform
        # max-sized allgather and (G-1)*max broadcast into every chassis
        old_chunks = max(len(plan.gpus) for plan in plans)
        leader_fabric = _induce(topo, [p.leader for p in plans], "leaders")
        old_exchange = synthesize(
            leader_fabric.topology,
            allgather([leader_fabric.to_sub[p.leader] for p in plans],
                      old_chunks),
            config)
        old_broadcast = []
        for plan in plans:
            if len(plan.gpus) < 2:
                continue
            fabric = _induce(topo, list(plan.gpus), "c")
            demand = broadcast(fabric.to_sub[plan.leader],
                               [fabric.to_sub[g] for g in plan.gpus],
                               (len(plans) - 1) * old_chunks)
            old_broadcast.append(
                synthesize(fabric.topology, demand, config).finish_time)
        old_finish = (max(p.finish_time for p in out.local_gather)
                      + old_exchange.finish_time + max(old_broadcast))
        assert out.finish_time < old_finish


class TestFailFast:
    def test_degenerate_chassis_fail_before_any_solve(self, monkeypatch):
        """All-single-GPU chassis must be rejected pre-synthesis, not
        after paying for the leader-exchange solve."""
        import repro.core.hierarchical as hier

        calls = {"n": 0}

        def counting(*args, **kwargs):
            calls["n"] += 1
            raise AssertionError("a degenerate input reached the solver")

        monkeypatch.setattr(hier, "synthesize", counting)
        topo = topology.ring(4, capacity=1.0)
        plans = [ChassisPlan(gpus=(g,), leader=g) for g in topo.gpus]
        with pytest.raises(DemandError, match="multi-GPU chassis"):
            hierarchical_allgather(topo, cfg(), chassis=plans)
        assert calls["n"] == 0
