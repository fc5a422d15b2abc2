"""Replay behaviours of ``check_schedule`` on hand-written schedules:
availability, capacity windows, switch strictness, delivery."""

import pytest

from repro import collectives, topology
from repro.core.epochs import plan_with_tau
from repro.core.schedule import Schedule, Send
from repro.errors import ScheduleError
from repro.simulate import check_schedule


def send(epoch, src, dst, source=0, chunk=0):
    return Send(epoch=epoch, source=source, chunk=chunk, src=src, dst=dst)


@pytest.fixture
def line3():
    return topology.line(3, capacity=1.0)


@pytest.fixture
def plan3(line3):
    return plan_with_tau(line3, 1.0, tau=1.0, num_epochs=8)


def sched(sends, num_epochs=8, chunk_bytes=1.0):
    return Schedule(sends=sends, tau=1.0, chunk_bytes=chunk_bytes,
                    num_epochs=num_epochs)


class TestAvailability:
    def test_valid_relay_passes(self, line3, plan3):
        demand = collectives.Demand.from_triples([(0, 0, 2)])
        report = check_schedule(sched([send(0, 0, 1), send(1, 1, 2)]),
                                line3, demand, plan3)
        assert report.ok
        assert report.finish_time == pytest.approx(2.0)

    def test_premature_forward_detected(self, line3, plan3):
        demand = collectives.Demand.from_triples([(0, 0, 2)])
        report = check_schedule(sched([send(0, 0, 1), send(0, 1, 2)]),
                                line3, demand, plan3)
        assert not report.ok
        assert any("before holding" in str(v) for v in report.violations)
        assert "availability" in report.counts_by_kind()

    def test_forward_of_never_received_chunk(self, line3, plan3):
        demand = collectives.Demand.from_triples([(0, 0, 2)])
        report = check_schedule(sched([send(0, 1, 2)]), line3, demand, plan3)
        assert not report.ok

    def test_alpha_shifts_availability(self):
        topo = topology.line(3, capacity=1.0, alpha=1.5)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        demand = collectives.Demand.from_triples([(0, 0, 2)])
        # Delta = 2: forwarding at epoch 2 is one epoch too early
        early = check_schedule(sched([send(0, 0, 1), send(2, 1, 2)]),
                               topo, demand, plan)
        assert not early.ok
        ok = check_schedule(sched([send(0, 0, 1), send(3, 1, 2)]),
                            topo, demand, plan)
        assert ok.ok


class TestCapacity:
    def test_over_capacity_detected(self, line3, plan3):
        demand = collectives.Demand.from_triples([(0, 0, 1), (0, 1, 1)])
        report = check_schedule(
            sched([send(0, 0, 1), send(0, 0, 1, chunk=1)]),
            line3, demand, plan3)
        assert not report.ok
        assert "capacity" in report.counts_by_kind()

    def test_windowed_capacity_on_slow_links(self):
        topo = topology.Topology("w", num_nodes=2)
        topo.add_bidirectional(0, 1, 1.0)
        plan = plan_with_tau(topo, 4.0, tau=1.0, num_epochs=12)
        assert plan.occupancy[(0, 1)] == 4
        demand = collectives.Demand.from_triples([(0, 0, 1), (0, 1, 1)])
        burst = check_schedule(
            sched([send(0, 0, 1), send(2, 0, 1, chunk=1)], num_epochs=12,
                  chunk_bytes=4.0),
            topo, demand, plan)
        assert not burst.ok
        spaced = check_schedule(
            sched([send(0, 0, 1), send(4, 0, 1, chunk=1)], num_epochs=12,
                  chunk_bytes=4.0),
            topo, demand, plan)
        assert spaced.ok


class TestSwitchSemantics:
    def test_stranded_chunk_detected(self):
        topo = topology.star(3)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        demand = collectives.Demand.from_triples([(0, 0, 1)])
        report = check_schedule(
            sched([send(0, 0, 3), send(0, 0, 1)]),  # direct link 0->1 absent!
            topo, demand, plan)
        assert not report.ok

    def test_switch_relay_timing(self):
        topo = topology.star(3)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        demand = collectives.Demand.from_triples([(0, 0, 1)])
        good = check_schedule(sched([send(0, 0, 3), send(1, 3, 1)]),
                              topo, demand, plan)
        assert good.ok
        late = check_schedule(sched([send(0, 0, 3), send(2, 3, 1)]),
                              topo, demand, plan, strict_switches=True)
        assert not late.ok

    def test_lenient_mode_allows_buffered_switches(self):
        topo = topology.star(3)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        demand = collectives.Demand.from_triples([(0, 0, 1)])
        report = check_schedule(sched([send(0, 0, 3), send(2, 3, 1)]),
                                topo, demand, plan, strict_switches=False)
        # forwarding late is an arrival violation only in strict mode
        assert "stranded" not in report.counts_by_kind()


class TestDelivery:
    def test_unmet_demand_detected(self, line3, plan3):
        demand = collectives.Demand.from_triples([(0, 0, 1), (0, 0, 2)])
        report = check_schedule(sched([send(0, 0, 1)]), line3, demand, plan3)
        assert not report.ok
        assert "delivery" in report.counts_by_kind()

    def test_finish_time_is_last_useful_arrival(self, line3, plan3):
        demand = collectives.Demand.from_triples([(0, 0, 1)])
        report = check_schedule(sched([send(0, 0, 1), send(3, 1, 2)]),
                                line3, demand, plan3)
        # the epoch-3 hop serves nothing; finish tracks demand only
        assert report.finish_time == pytest.approx(1.0)

    def test_verify_raises(self, line3, plan3):
        demand = collectives.Demand.from_triples([(0, 0, 2)])
        report = check_schedule(sched([]), line3, demand, plan3)
        with pytest.raises(ScheduleError):
            report.raise_on_violation()

    def test_total_bytes_reported(self, line3, plan3):
        demand = collectives.Demand.from_triples([(0, 0, 1)])
        report = check_schedule(sched([send(0, 0, 1)]), line3, demand, plan3)
        assert report.total_bytes == pytest.approx(1.0)
