"""Tests for the temporal flow decomposition (LP rates → timed paths)."""

import pytest

from repro import collectives, topology
from repro.core import TecclConfig, solve_lp
from repro.core.decompose import decompose, strips_to_events
from repro.core.epochs import plan_with_tau
from repro.core.schedule import FlowSchedule
from repro.errors import ScheduleError


def cfg(num_epochs=None, **kwargs):
    return TecclConfig(chunk_bytes=1.0, num_epochs=num_epochs, **kwargs)


def solved(topo, demand, epochs=8, aggregate=True):
    return solve_lp(topo, demand, cfg(epochs), aggregate=aggregate)


class TestDecompose:
    def test_direct_transfer_single_strip(self):
        topo = topology.line(2, capacity=1.0)
        demand = collectives.Demand.from_triples([(0, 0, 1)])
        out = solved(topo, demand, epochs=4)
        strips = decompose(out.schedule, topo, out.plan)
        assert len(strips) == 1
        strip = strips[0]
        assert strip.amount == pytest.approx(1.0)
        assert strip.nodes == [0, 1]
        assert strip.hops[0].epoch == 0

    def test_relay_path_recovered(self):
        topo = topology.line(3, capacity=1.0)
        demand = collectives.Demand.from_triples([(0, 0, 2)])
        out = solved(topo, demand, epochs=6)
        strips = decompose(out.schedule, topo, out.plan)
        total = sum(s.amount for s in strips if s.destination == 2)
        assert total == pytest.approx(1.0)
        for strip in strips:
            assert strip.nodes[0] == 0
            assert strip.nodes[-1] == 2
            # hops are time-ordered
            epochs = [h.epoch for h in strip.hops]
            assert epochs == sorted(epochs)

    def test_mass_conserved_per_destination(self, ring4):
        demand = collectives.alltoall(ring4.gpus, 1)
        out = solved(ring4, demand, epochs=6)
        strips = decompose(out.schedule, ring4, out.plan)
        per_sink: dict = {}
        for strip in strips:
            key = (strip.commodity, strip.destination)
            per_sink[key] = per_sink.get(key, 0.0) + strip.amount
        for (q, d), amount in per_sink.items():
            assert amount == pytest.approx(
                out.schedule.delivered(q, d), abs=1e-5)

    def test_strips_respect_flow_amounts(self, ring4):
        demand = collectives.alltoall(ring4.gpus, 1)
        out = solved(ring4, demand, epochs=6)
        strips = decompose(out.schedule, ring4, out.plan)
        used: dict = {}
        for strip in strips:
            for hop in strip.hops:
                key = (strip.commodity, hop.src, hop.dst, hop.epoch)
                used[key] = used.get(key, 0.0) + strip.amount
        for key, amount in used.items():
            assert amount <= out.schedule.flows[key] + 1e-5

    def test_split_paths_give_multiple_strips(self):
        topo = topology.Topology("par", num_nodes=4)
        topo.add_bidirectional(0, 1, 1.0)
        topo.add_bidirectional(1, 3, 1.0)
        topo.add_bidirectional(0, 2, 1.0)
        topo.add_bidirectional(2, 3, 1.0)
        demand = collectives.Demand.from_triples([(0, 0, 3), (0, 1, 3)])
        out = solved(topo, demand, epochs=4)
        strips = decompose(out.schedule, topo, out.plan)
        assert sum(s.amount for s in strips) == pytest.approx(2.0, abs=1e-5)
        routes = {tuple(s.nodes) for s in strips}
        assert len(routes) >= 2  # both parallel paths used

    def test_broken_schedule_raises(self):
        topo = topology.line(3, capacity=1.0)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=6)
        broken = FlowSchedule(flows={}, reads={(0, 2, 1): 1.0},
                              tau=1.0, chunk_bytes=1.0, num_epochs=6)
        with pytest.raises(ScheduleError):
            decompose(broken, topo, plan, buffers={})


class TestStripsToEvents:
    def test_roundtrip_to_sends(self, ring4):
        demand = collectives.alltoall(ring4.gpus, 1)
        out = solved(ring4, demand, epochs=6)
        strips = decompose(out.schedule, ring4, out.plan)
        schedule, _ = strips_to_events(strips, out.plan)
        assert schedule.num_sends > 0
        # every send's link exists
        for send in schedule.sends:
            assert ring4.has_link(send.src, send.dst)

    def test_integral_strip_one_send_per_hop(self):
        topo = topology.line(3, capacity=1.0)
        demand = collectives.Demand.from_triples([(0, 0, 2)])
        out = solved(topo, demand, epochs=6)
        strips = decompose(out.schedule, topo, out.plan)
        schedule, _ = strips_to_events(strips, out.plan)
        assert schedule.num_sends == 2  # two hops, one unit chunk

    def test_aggregated_commodity_units_get_distinct_chunks(self):
        """One LP commodity carrying two chunks to two sinks quantises to
        two chunk ids, and the schedule replays clean against the
        synthetic demand."""
        from repro.simulate import check_schedule

        topo = topology.line(3, capacity=2.0)
        demand = collectives.Demand.from_triples([(0, 0, 1), (0, 1, 2)])
        out = solved(topo, demand, epochs=4)
        strips = decompose(out.schedule, topo, out.plan)
        assert {strip.commodity for strip in strips} == {0}  # aggregated
        schedule, synth = strips_to_events(strips, out.plan)
        assert sorted(synth.triples()) == [(0, 0, 1), (0, 1, 2)]
        report = check_schedule(schedule, topo, synth, out.plan)
        assert report.violations == []

    def test_synthetic_demand_covers_all_units(self, ring4):
        demand = collectives.alltoall(ring4.gpus, 1)
        out = solved(ring4, demand, epochs=6)
        strips = decompose(out.schedule, ring4, out.plan)
        schedule, synth = strips_to_events(strips, out.plan)
        # same number of unit deliveries as the original demand
        assert synth.num_triples == demand.num_triples
        # every synthetic chunk id is unique per source
        seen = set()
        for s, c, d in synth.triples():
            assert (s, c) not in seen
            seen.add((s, c))

    def test_event_execution_of_lp_schedule(self, ring4):
        from repro.simulate import run_events

        demand = collectives.alltoall(ring4.gpus, 1)
        out = solved(ring4, demand, epochs=6)
        strips = decompose(out.schedule, ring4, out.plan)
        schedule, synth = strips_to_events(strips, out.plan)
        report = run_events(schedule, ring4, synth)
        # continuous time can only improve on the epoch-grid estimate
        assert report.finish_time <= out.finish_time + 1e-9

    def test_fractional_split_rounds_to_total(self):
        """Two half-unit strips to one sink become exactly one unit chunk."""
        from repro.core.decompose import PathStrip, TimedHop

        topo = topology.line(2, capacity=1.0)
        from repro.core.epochs import plan_with_tau

        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=4)
        strips = [
            PathStrip(commodity=0, destination=1, amount=0.5,
                      hops=(TimedHop(0, 1, 0),), read_epoch=0),
            PathStrip(commodity=0, destination=1, amount=0.5,
                      hops=(TimedHop(0, 1, 1),), read_epoch=1),
        ]
        schedule, synth = strips_to_events(strips, plan)
        assert synth.num_triples == 1
        assert schedule.num_sends == 1
