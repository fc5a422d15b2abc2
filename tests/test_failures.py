"""Tests for failure injection and checkpoint-restart schedule repair."""

import pytest

from repro import collectives, topology
from repro.core import TecclConfig, solve_lp, solve_milp
from repro.core.epochs import build_epoch_plan
from repro.core.schedule import Schedule, Send
from repro.errors import InfeasibleError, ModelError, TopologyError
from repro.failures import (FailureEvent, affected_sends,
                            degraded_capacity_fn, degraded_topology,
                            failure_impact, is_survivable, network_state_at,
                            rehome_demand, repair_schedule)


def cfg(num_epochs=None, **kwargs):
    return TecclConfig(chunk_bytes=1.0, num_epochs=num_epochs, **kwargs)


def solved_ring4():
    topo = topology.ring(4, capacity=1.0)
    demand = collectives.allgather(topo.gpus, 1)
    outcome = solve_milp(topo, demand, cfg(8))
    return topo, demand, outcome


class TestFailureEvent:
    def test_kills_only_from_epoch(self):
        event = FailureEvent(epoch=2, link=(0, 1))
        early = Send(epoch=1, source=0, chunk=0, src=0, dst=1)
        late = Send(epoch=2, source=0, chunk=0, src=0, dst=1)
        assert not event.kills(early)
        assert event.kills(late)

    def test_other_links_unaffected(self):
        event = FailureEvent(epoch=0, link=(0, 1))
        send = Send(epoch=5, source=0, chunk=0, src=1, dst=2)
        assert not event.kills(send)

    def test_negative_epoch_rejected(self):
        with pytest.raises(TopologyError):
            FailureEvent(epoch=-1, link=(0, 1))


class TestDegradedFabric:
    def test_degraded_topology_removes_links(self, ring4):
        degraded = degraded_topology(ring4, [FailureEvent(0, (0, 1))])
        assert not degraded.has_link(0, 1)
        assert degraded.has_link(1, 0)

    def test_no_failures_copies(self, ring4):
        degraded = degraded_topology(ring4, [])
        assert sorted(degraded.links) == sorted(ring4.links)

    def test_capacity_fn_zeroes_after_cutoff(self, ring4):
        capacity = degraded_capacity_fn(ring4, [FailureEvent(3, (0, 1))])
        assert capacity(0, 1, 2) == pytest.approx(1.0)
        assert capacity(0, 1, 3) <= 1e-9
        assert capacity(1, 0, 9) == pytest.approx(1.0)

    def test_earliest_cutoff_wins(self, ring4):
        capacity = degraded_capacity_fn(
            ring4, [FailureEvent(5, (0, 1)), FailureEvent(2, (0, 1))])
        assert capacity(0, 1, 2) <= 1e-9

    def test_survivable_ring_single_link(self, ring4, ag_ring4):
        assert is_survivable(ring4, ag_ring4, [FailureEvent(0, (0, 1))])

    def test_unsurvivable_partition(self):
        topo = topology.line(3, capacity=1.0)
        demand = collectives.allgather(topo.gpus, 1)
        cut = [FailureEvent(0, (1, 2)), FailureEvent(0, (2, 1))]
        assert not is_survivable(topo, demand, cut)


class TestAffectedSends:
    def test_direct_hits_only(self):
        topo, demand, outcome = solved_ring4()
        sends_01 = [s for s in outcome.schedule.sends if s.link == (0, 1)]
        assert sends_01, "expected the optimum to use link (0,1)"
        hit = affected_sends(outcome.schedule, [FailureEvent(0, (0, 1))])
        assert hit == sorted(sends_01)


class TestNetworkState:
    def test_state_at_zero_only_sources(self):
        topo, demand, outcome = solved_ring4()
        state = network_state_at(outcome.schedule, topo, demand,
                                 outcome.plan, 0)
        for (s, c), holders in state.holders.items():
            assert holders == {s}
        assert not state.delivered

    def test_state_after_horizon_all_delivered(self):
        topo, demand, outcome = solved_ring4()
        state = network_state_at(outcome.schedule, topo, demand,
                                 outcome.plan, outcome.schedule.num_epochs + 4)
        assert state.delivered == set(demand.triples())
        assert state.progress(demand) == pytest.approx(1.0)

    def test_progress_monotone_in_epoch(self):
        topo, demand, outcome = solved_ring4()
        last = -1.0
        for epoch in range(outcome.schedule.num_epochs + 2):
            state = network_state_at(outcome.schedule, topo, demand,
                                     outcome.plan, epoch)
            now = state.progress(demand)
            assert now >= last
            last = now

    def test_in_flight_tracked(self):
        topo = topology.line(2, capacity=1.0, alpha=5.0)  # multi-epoch delay
        demand = collectives.Demand.from_triples([(0, 0, 1)])
        outcome = solve_milp(topo, demand, cfg(12))
        sends = outcome.schedule.sends
        assert sends
        mid = sends[0].epoch + 1  # after start, before the α-delayed arrival
        state = network_state_at(outcome.schedule, topo, demand,
                                 outcome.plan, mid)
        assert state.in_flight
        assert not state.delivered


class TestRehomeDemand:
    def test_everything_delivered_empty_residual(self):
        topo, demand, outcome = solved_ring4()
        state = network_state_at(outcome.schedule, topo, demand,
                                 outcome.plan, outcome.schedule.num_epochs + 4)
        residual, mapping = rehome_demand(state, demand, topo, 1.0)
        assert residual.is_empty()
        assert mapping == {}

    def test_rehomes_to_closest_holder(self):
        # chunk of source 0 already reached node 2; node 3 still wants it.
        # On a line, holder 2 is one hop from 3 while source 0 is three.
        topo = topology.line(4, capacity=1.0)
        demand = collectives.Demand.from_triples([(0, 0, 2), (0, 0, 3)])
        from repro.failures.repair import NetworkState

        state = NetworkState(epoch=3, holders={(0, 0): {0, 2}},
                             delivered={(0, 0, 2)})
        residual, mapping = rehome_demand(state, demand, topo, 1.0)
        [(h, c, d)] = residual.triples()
        assert (h, d) == (2, 3)
        assert mapping[(h, c, d)] == (0, 0, 3)

    def test_unreachable_destination_raises(self):
        topo = topology.line(3, capacity=1.0)
        degraded = degraded_topology(
            topo, [FailureEvent(0, (1, 2)), FailureEvent(0, (0, 1))])
        demand = collectives.Demand.from_triples([(0, 0, 2)])
        from repro.failures.repair import NetworkState

        state = NetworkState(epoch=0, holders={(0, 0): {0}})
        with pytest.raises(InfeasibleError):
            rehome_demand(state, demand, degraded, 1.0)


class TestRepairSchedule:
    def test_repair_completes_residual(self):
        topo, demand, outcome = solved_ring4()
        failures = [FailureEvent(1, (0, 1))]
        repair = repair_schedule(topo, demand, cfg(), outcome.schedule,
                                 outcome.plan, failures)
        assert repair.restart_epoch == 1
        assert repair.synthesis is not None
        assert repair.total_time > 0
        # every residual triple maps back to an original one
        for rehomed in repair.residual_demand.triples():
            assert repair.mapping[rehomed] in set(demand.triples())

    def test_late_failure_needs_no_repair(self):
        topo, demand, outcome = solved_ring4()
        failures = [FailureEvent(outcome.schedule.num_epochs + 4, (0, 1))]
        repair = repair_schedule(topo, demand, cfg(), outcome.schedule,
                                 outcome.plan, failures)
        assert repair.synthesis is None
        assert repair.residual_finish_time == 0.0

    def test_repair_costs_more_than_no_failure(self):
        topo, demand, outcome = solved_ring4()
        failures = [FailureEvent(1, (0, 1))]
        repair = repair_schedule(topo, demand, cfg(), outcome.schedule,
                                 outcome.plan, failures)
        assert repair.overhead_over(outcome.finish_time) >= -1e-9

    def test_partitioning_failure_raises(self):
        topo = topology.line(3, capacity=1.0)
        demand = collectives.allgather(topo.gpus, 1)
        outcome = solve_milp(topo, demand, cfg(8))
        cut = [FailureEvent(0, (1, 2)), FailureEvent(0, (2, 1))]
        with pytest.raises(InfeasibleError):
            repair_schedule(topo, demand, cfg(), outcome.schedule,
                            outcome.plan, cut)

    def test_no_failures_rejected(self):
        topo, demand, outcome = solved_ring4()
        with pytest.raises(ModelError):
            repair_schedule(topo, demand, cfg(), outcome.schedule,
                            outcome.plan, [])

    def test_fractional_schedule_is_a_typed_error(self):
        """An LP result has no integral send prefix to replay: a
        ``ModelError`` that names the way out, not an AttributeError."""
        ring6 = topology.ring(6, capacity=1.0)
        demand = collectives.alltoall(ring6.gpus, 1)
        outcome = solve_lp(ring6, demand, cfg())
        with pytest.raises(ModelError, match="degraded_topology"):
            repair_schedule(ring6, demand, cfg(), outcome.schedule,
                            outcome.plan, [FailureEvent(1, (0, 1))])
        with pytest.raises(ModelError, match="degraded_topology"):
            network_state_at(outcome.schedule, ring6, demand,
                             outcome.plan, 1)


class TestFailureImpact:
    def test_ranks_all_links(self, ring4, ag_ring4):
        rows = failure_impact(ring4, ag_ring4, cfg())
        assert len(rows) == len(ring4.links)
        assert all(r.survivable for r in rows)
        # worst-first ordering
        for earlier, later in zip(rows, rows[1:]):
            assert earlier.slowdown >= later.slowdown - 1e-12

    def test_bridge_link_unsurvivable(self):
        topo = topology.line(3, capacity=1.0)
        demand = collectives.allgather(topo.gpus, 1)
        rows = failure_impact(topo, demand, cfg(),
                              links=[(1, 2)])
        [row] = rows
        assert not row.survivable
        assert row.finish_time == float("inf")


class TestRepairConformance:
    def test_residual_schedule_replays_clean(self):
        topo, demand, outcome = solved_ring4()
        repair = repair_schedule(topo, demand, cfg(), outcome.schedule,
                                 outcome.plan, [FailureEvent(1, (0, 1))])
        report = repair.check_conformance(cfg())
        assert report is not None
        assert report.ok, [str(v) for v in report.violations]
        # the replayed finish is the residual objective the repair reports
        assert report.finish_time == pytest.approx(
            repair.residual_finish_time)

    def test_nothing_to_replay_after_late_failure(self):
        topo, demand, outcome = solved_ring4()
        late = outcome.schedule.num_epochs + 4
        repair = repair_schedule(topo, demand, cfg(), outcome.schedule,
                                 outcome.plan, [FailureEvent(late, (0, 1))])
        assert repair.check_conformance() is None
