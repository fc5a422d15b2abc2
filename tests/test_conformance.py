"""The conformance engine and the randomized cross-producer harness.

Three layers:

* unit tests proving the oracle *detects* each violation family on
  deliberately corrupted schedules (an oracle that cannot fail is not an
  oracle);
* the MSCCL round-trip satellite: export → re-ingest → equal replay;
* the randomized sweeps: every producer over ``random_instance`` seeds with
  zero violations and solver-objective agreement. The fast subset runs in
  tier-1; the full sweep carries the ``slow`` marker for the weekly job.
"""

import pytest

from repro import collectives, topology
from repro.collectives.demand import Demand
from repro.core import TecclConfig
from repro.core.config import SwitchModel
from repro.core.epochs import plan_with_tau
from repro.core.schedule import FlowSchedule, Schedule, Send
from repro.core.solve import synthesize
from repro.errors import ScheduleError
from repro.simulate import (PRODUCERS, check_flow, check_result,
                            check_schedule, sweep)
from repro.simulate.harness import random_instance

pytestmark = pytest.mark.conformance


def send(epoch, src, dst, source=0, chunk=0):
    return Send(epoch=epoch, source=source, chunk=chunk, src=src, dst=dst)


def sched(sends, num_epochs=8, chunk_bytes=1.0):
    return Schedule(sends=sends, tau=1.0, chunk_bytes=chunk_bytes,
                    num_epochs=num_epochs)


@pytest.fixture
def line3_plan(line3):
    return plan_with_tau(line3, 1.0, tau=1.0, num_epochs=8)


class TestViolationDetection:
    """Each violation family must be caught, with provenance attached."""

    def test_conformant_schedule_reports_clean(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 2)])
        report = check_schedule(sched([send(0, 0, 1), send(1, 1, 2)]),
                                line3, demand, line3_plan)
        assert report.ok
        assert report.finish_time == pytest.approx(2.0)
        assert report.counts_by_kind() == {}
        assert report.delivered[(0, 0, 2)] == pytest.approx(2.0)

    def test_availability(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 2)])
        report = check_schedule(sched([send(0, 0, 1), send(0, 1, 2)]),
                                line3, demand, line3_plan)
        kinds = report.counts_by_kind()
        assert kinds.get("availability") == 1
        bad = [v for v in report.violations if v.kind == "availability"][0]
        assert bad.epoch == 0 and bad.node == 1 and bad.commodity == (0, 0)

    def test_missing_link(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 2)])
        report = check_schedule(sched([send(0, 0, 2)]), line3, demand,
                                line3_plan)
        assert any(v.kind == "link" and v.link == (0, 2)
                   for v in report.violations)

    def test_horizon(self, line3):
        plan = plan_with_tau(line3, 1.0, tau=1.0, num_epochs=2)
        demand = Demand.from_triples([(0, 0, 1)])
        report = check_schedule(sched([send(5, 0, 1)], num_epochs=8),
                                line3, demand, plan)
        assert any(v.kind == "horizon" and v.epoch == 5
                   for v in report.violations)

    def test_capacity(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 1), (0, 1, 1)])
        report = check_schedule(
            sched([send(0, 0, 1), send(0, 0, 1, chunk=1)]),
            line3, demand, line3_plan)
        assert any(v.kind == "capacity" and v.link == (0, 1)
                   for v in report.violations)

    def test_windowed_capacity_on_slow_links(self):
        topo = topology.Topology("w", num_nodes=2)
        topo.add_bidirectional(0, 1, 1.0)
        plan = plan_with_tau(topo, 4.0, tau=1.0, num_epochs=12)
        assert plan.occupancy[(0, 1)] == 4
        demand = Demand.from_triples([(0, 0, 1), (0, 1, 1)])
        burst = check_schedule(
            sched([send(0, 0, 1), send(2, 0, 1, chunk=1)], num_epochs=12,
                  chunk_bytes=4.0), topo, demand, plan)
        assert any(v.kind == "capacity" for v in burst.violations)
        spaced = check_schedule(
            sched([send(0, 0, 1), send(4, 0, 1, chunk=1)], num_epochs=12,
                  chunk_bytes=4.0), topo, demand, plan)
        assert spaced.ok

    def test_switch_forward_without_arrival(self):
        topo = topology.star(3)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        demand = Demand.from_triples([(0, 0, 1)])
        late = check_schedule(sched([send(0, 0, 3), send(2, 3, 1)]),
                              topo, demand, plan, strict_switches=False)
        assert any(v.kind == "switch" for v in late.violations)

    def test_stranded_chunk_under_strict_switches(self):
        topo = topology.star(3)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        demand = Demand.from_triples([(0, 0, 1)])
        report = check_schedule(
            sched([send(0, 0, 3), send(1, 3, 1), send(2, 0, 3)]),
            topo, demand, plan, strict_switches=True)
        assert any(v.kind == "stranded" for v in report.violations)

    def test_no_copy_switch_rejects_duplication(self):
        topo = topology.star(3)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        demand = Demand.from_triples([(0, 0, 1), (0, 0, 2)])
        dup = sched([send(0, 0, 3), send(1, 3, 1), send(1, 3, 2)])
        copy_cfg = TecclConfig(chunk_bytes=1.0,
                               switch_model=SwitchModel.COPY)
        nocopy_cfg = TecclConfig(chunk_bytes=1.0,
                                 switch_model=SwitchModel.NO_COPY)
        assert check_schedule(dup, topo, demand, plan, config=copy_cfg).ok
        report = check_schedule(dup, topo, demand, plan, config=nocopy_cfg)
        assert any(v.kind == "switch" and "duplicates" in str(v)
                   for v in report.violations)

    def test_store_and_forward_ablation(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 2)])
        cfg = TecclConfig(chunk_bytes=1.0, store_and_forward=False)
        held = sched([send(0, 0, 1), send(3, 1, 2)])
        report = check_schedule(held, line3, demand, line3_plan, config=cfg)
        assert any(v.kind == "relay" and v.node == 1
                   for v in report.violations)
        prompt = sched([send(0, 0, 1), send(1, 1, 2)])
        assert check_schedule(prompt, line3, demand, line3_plan,
                              config=cfg).ok

    def test_buffer_budget(self, line3, line3_plan):
        # two chunks overlap in node 1's relay buffer at epoch 2
        demand = Demand.from_triples([(0, 0, 2), (0, 1, 2)])
        cfg = TecclConfig(chunk_bytes=1.0, buffer_limit_chunks=1)
        crowded = sched([send(0, 0, 1), send(1, 0, 1, chunk=1),
                         send(2, 1, 2, chunk=1), send(3, 1, 2)])
        report = check_schedule(crowded, line3, demand, line3_plan,
                                config=cfg)
        assert any(v.kind == "buffer" and v.node == 1
                   for v in report.violations)
        # staggered relays never hold two chunks at once
        staggered = sched([send(0, 0, 1), send(1, 1, 2),
                           send(1, 0, 1, chunk=1), send(2, 1, 2, chunk=1)])
        assert check_schedule(staggered, line3, demand, line3_plan,
                              config=cfg).ok

    def test_unmet_demand(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 1), (0, 0, 2)])
        report = check_schedule(sched([send(0, 0, 1)]), line3, demand,
                                line3_plan)
        assert any(v.kind == "delivery" and v.node == 2
                   for v in report.violations)

    def test_finish_disagreement(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 1)])
        report = check_schedule(sched([send(0, 0, 1)]), line3, demand,
                                line3_plan, claimed_finish_time=5.0)
        assert any(v.kind == "finish" for v in report.violations)
        agree = check_schedule(sched([send(0, 0, 1)]), line3, demand,
                               line3_plan, claimed_finish_time=1.0)
        assert agree.ok and agree.finish_delta == pytest.approx(0.0)

    def test_report_serialisation(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 2)])
        report = check_schedule(sched([send(0, 0, 1), send(0, 1, 2)]),
                                line3, demand, line3_plan)
        doc = report.to_dict()
        assert doc["ok"] is False
        assert doc["violation_counts"]["availability"] == 1
        entry = [v for v in doc["violations"]
                 if v["kind"] == "availability"][0]
        assert entry["commodity"] == [0, 0] and entry["epoch"] == 0

    def test_raise_on_violation(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 2)])
        with pytest.raises(ScheduleError):
            check_schedule(sched([]), line3, demand,
                           line3_plan).raise_on_violation()


class TestFlowConformance:
    """The fractional oracle, on hand-built LP-shaped schedules."""

    def _flow(self, flows, reads, num_epochs=8):
        return FlowSchedule(flows=flows, reads=reads, tau=1.0,
                            chunk_bytes=1.0, num_epochs=num_epochs)

    def test_conformant_flow(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 2)])
        flow = self._flow({((0, 0), 0, 1, 0): 1.0, ((0, 0), 1, 2, 1): 1.0},
                          {((0, 0), 2, 1): 1.0})
        report = check_flow(flow, line3, demand, line3_plan)
        assert report.ok
        assert report.delivered[((0, 0), 2)] == pytest.approx(1.0)
        assert report.finish_time == pytest.approx(2.0)

    def test_capacity_violation(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 2)])
        flow = self._flow({((0, 0), 0, 1, 0): 3.0, ((0, 0), 1, 2, 1): 1.0},
                          {((0, 0), 2, 1): 1.0})
        report = check_flow(flow, line3, demand, line3_plan)
        assert any(v.kind == "capacity" and v.link == (0, 1)
                   for v in report.violations)

    def test_causality_violation(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 2)])
        # the read draws pool 1, but the arrival only lands at pool 2
        flow = self._flow({((0, 0), 0, 1, 0): 1.0, ((0, 0), 1, 2, 1): 1.0},
                          {((0, 0), 2, 0): 1.0})
        report = check_flow(flow, line3, demand, line3_plan)
        assert any(v.kind == "conservation" and v.node == 2
                   for v in report.violations)

    def test_relay_sends_before_arrival(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 2)])
        flow = self._flow({((0, 0), 0, 1, 1): 1.0, ((0, 0), 1, 2, 1): 1.0},
                          {((0, 0), 2, 1): 1.0})
        report = check_flow(flow, line3, demand, line3_plan)
        assert any(v.kind == "conservation" and v.node == 1
                   for v in report.violations)

    def test_partial_delivery(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 2)])
        flow = self._flow({((0, 0), 0, 1, 0): 0.5, ((0, 0), 1, 2, 1): 0.5},
                          {((0, 0), 2, 1): 0.5})
        report = check_flow(flow, line3, demand, line3_plan)
        assert any(v.kind == "delivery" and v.node == 2
                   for v in report.violations)

    def test_undemanded_read(self, line3, line3_plan):
        demand = Demand.from_triples([(0, 0, 2)])
        flow = self._flow({((0, 0), 0, 1, 0): 1.0, ((0, 0), 1, 2, 1): 1.0},
                          {((0, 0), 2, 1): 1.0, ((0, 0), 1, 1): 0.5})
        report = check_flow(flow, line3, demand, line3_plan)
        assert any(v.kind == "delivery" and "never demanded" in str(v)
                   for v in report.violations)

    def test_switch_cannot_buffer_flow(self):
        topo = topology.star(3)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        demand = Demand.from_triples([(0, 0, 1)])
        good = self._flow({((0, 0), 0, 3, 0): 1.0, ((0, 0), 3, 1, 1): 1.0},
                          {((0, 0), 1, 1): 1.0})
        assert check_flow(good, topo, demand, plan).ok
        held = self._flow({((0, 0), 0, 3, 0): 1.0, ((0, 0), 3, 1, 2): 1.0},
                          {((0, 0), 1, 2): 1.0})
        report = check_flow(held, topo, demand, plan)
        assert any(v.kind == "switch" and v.node == 3
                   for v in report.violations)

    def test_aggregated_commodities(self, line3, line3_plan):
        # the aggregated LP keys commodities by bare source id
        demand = Demand.from_triples([(0, 0, 1), (0, 1, 2)])
        flow = self._flow({(0, 0, 1, 0): 2.0, (0, 1, 2, 1): 1.0},
                          {(0, 1, 0): 1.0, (0, 2, 1): 1.0})
        plan2 = plan_with_tau(line3, 1.0, tau=2.0, num_epochs=8)
        report = check_flow(flow, line3, demand, plan2)
        assert report.ok, [str(v) for v in report.violations]

    def test_solved_lp_replays_clean(self, line3):
        demand = Demand.from_triples([(0, 0, 2), (2, 0, 0), (1, 0, 2)])
        config = TecclConfig(chunk_bytes=1.0)
        result = synthesize(line3, demand, config)
        report = check_result(result, config=config)
        assert report.ok, [str(v) for v in report.violations]
        assert report.finish_delta == pytest.approx(0.0, abs=1e-9)


class TestMscclRoundTrip:
    """Satellite: export → re-ingest → identical delivery and finish."""

    def _roundtrip_reports(self, topo, demand, schedule):
        from repro.msccl import schedule_from_msccl_xml, to_msccl_xml

        xml = to_msccl_xml(schedule, topo, demand, name="roundtrip")
        back = schedule_from_msccl_xml(xml, tau=schedule.tau,
                                       chunk_bytes=schedule.chunk_bytes)
        plan = plan_with_tau(topo, schedule.chunk_bytes, schedule.tau,
                             max(schedule.num_epochs, back.num_epochs))
        return (check_schedule(schedule, topo, demand, plan),
                check_schedule(back, topo, demand, plan))

    def test_baseline_roundtrip_equal_replay(self, ring4):
        from repro.baselines import tree_allgather

        demand = collectives.allgather(ring4.gpus, 1)
        schedule = tree_allgather(ring4, TecclConfig(chunk_bytes=1.0), 1)
        original, back = self._roundtrip_reports(ring4, demand, schedule)
        assert original.ok and back.ok
        assert back.delivered == original.delivered
        assert back.finish_time == pytest.approx(original.finish_time)
        assert back.num_sends == original.num_sends

    def test_milp_roundtrip_equal_replay(self, line3):
        demand = collectives.allgather(line3.gpus, 1)
        result = synthesize(line3, demand, TecclConfig(chunk_bytes=1.0))
        original, back = self._roundtrip_reports(line3, demand,
                                                 result.schedule)
        assert original.ok and back.ok
        assert back.delivered == original.delivered
        assert back.finish_time == pytest.approx(original.finish_time)
        # the replayed finish is the solver's objective, end to end
        assert back.finish_time == pytest.approx(result.finish_time)

    def test_interpreter_agrees_on_delivery(self, ring4):
        from repro.baselines import tree_allgather
        from repro.msccl import to_msccl_xml, verify_program

        demand = collectives.allgather(ring4.gpus, 1)
        schedule = tree_allgather(ring4, TecclConfig(chunk_bytes=1.0), 1)
        xml = to_msccl_xml(schedule, ring4, demand, name="interp")
        interp = verify_program(xml, ring4, demand, chunk_bytes=1.0)
        plan = plan_with_tau(ring4, 1.0, schedule.tau, schedule.num_epochs)
        replay = check_schedule(schedule, ring4, demand, plan)
        assert replay.ok
        for s, c, d in demand.triples():
            assert interp.delivered(s, c, d)
        assert set(replay.delivered) == set(demand.triples())


def _assert_clean(records):
    bad = [r for r in records if not r.skipped and not r.ok]
    details = [(r.producer, r.seed, r.label,
                [str(v) for v in r.report.violations[:3]]) for r in bad]
    assert not bad, details


class TestRandomizedSweep:
    def test_fast_sweep_all_producers(self, make_instance):
        records = sweep(range(6), instance_fn=make_instance)
        _assert_clean(records)
        replayed = {r.producer for r in records if not r.skipped}
        assert len(replayed) >= 8

    def test_solver_objectives_replay_exactly(self, make_instance):
        # LP/MILP claims must match the replay on every instance (the
        # "finish" violation kind would flag any disagreement; require the
        # comparison actually happened too).
        records = sweep(range(6), producers=["milp", "lp"],
                        instance_fn=make_instance)
        _assert_clean(records)
        for r in records:
            assert not r.skipped
            assert r.report.claimed_finish_time is not None
            assert abs(r.finish_delta) <= 1e-6 * max(
                1e-12, r.report.claimed_finish_time)

    @pytest.mark.slow
    def test_full_randomized_sweep(self):
        seeds = range(40)
        records = sweep(seeds)
        _assert_clean(records)
        ok_counts = {}
        for r in records:
            if r.ok:
                ok_counts[r.producer] = ok_counts.get(r.producer, 0) + 1
        # the acceptance bar: >= 8 producers each replayed on >= 20
        # randomized instances, zero violations anywhere
        deep = {p for p, n in ok_counts.items() if n >= 20}
        assert len(deep) >= 8, ok_counts
        # and every producer in the registry took part
        assert set(ok_counts) == set(PRODUCERS)


class TestHarnessPlumbing:
    def test_random_instance_is_deterministic(self):
        a_topo, a_demand, a_cfg = random_instance(12)
        b_topo, b_demand, b_cfg = random_instance(12)
        assert a_topo.to_dict() == b_topo.to_dict()
        assert a_demand.to_dict() == b_demand.to_dict()
        assert a_cfg.to_dict() == b_cfg.to_dict()

    def test_skips_are_reported_not_raised(self):
        # seed 1 is a line fabric: no Hamiltonian ring exists
        topo, demand, config = random_instance(1)
        assert topo.name.startswith("line")
        from repro.simulate import run_producer

        records = run_producer("ring", topo, demand, config, seed=1)
        assert len(records) == 1 and records[0].skipped
        assert "ring" in records[0].error


class TestResultConfigRoundTrip:
    """Deserialised results must replay under their model variant."""

    def test_config_roundtrips_with_result(self, line3):
        from repro.core.solve import SynthesisResult

        demand = collectives.allgather(line3.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0, store_and_forward=False)
        result = synthesize(line3, demand, config)
        restored = SynthesisResult.from_dict(result.to_dict())
        assert restored.config is not None
        assert restored.config.store_and_forward is False
        report = check_result(restored)  # config comes from the document
        assert report.ok, [str(v) for v in report.violations]

    def test_deserialised_result_honours_no_copy_switches(self):
        from repro.core.solve import Method, SynthesisResult

        topo = topology.star(3)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        demand = Demand.from_triples([(0, 0, 1), (0, 0, 2)])
        dup = sched([send(0, 0, 3), send(1, 3, 1), send(1, 3, 2)])
        nocopy = TecclConfig(chunk_bytes=1.0,
                             switch_model=SwitchModel.NO_COPY)
        result = SynthesisResult(
            method=Method.MILP, schedule=dup, finish_time=2.0,
            solve_time=0.0, plan=plan, topology_used=topo,
            demand_used=demand, config=nocopy)
        restored = SynthesisResult.from_dict(result.to_dict())
        report = check_result(restored, compare_finish=False)
        assert any(v.kind == "switch" and "duplicates" in str(v)
                   for v in report.violations)
        # the same schedule is legal on a copying switch
        assert check_result(restored, compare_finish=False,
                            config=TecclConfig(chunk_bytes=1.0)).ok


class TestFlowStranding:
    def test_mass_stranded_at_switch_detected(self):
        topo = topology.star(3)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        demand = Demand.from_triples([(0, 0, 1)])
        # demand is met over the hub, but half a chunk enters the switch a
        # second time and never leaves — stranded mass at a zero-buffer node
        flow = FlowSchedule(
            flows={((0, 0), 0, 3, 0): 1.0, ((0, 0), 3, 1, 1): 1.0,
                   ((0, 0), 0, 3, 3): 0.5},
            reads={((0, 0), 1, 1): 1.0},
            tau=1.0, chunk_bytes=1.0, num_epochs=8)
        report = check_flow(flow, topo, demand, plan)
        assert any(v.kind == "stranded" and v.node == 3
                   for v in report.violations)


class TestShortcutGateFallbacks:
    """Every shortcut is gated by a replay; here the replay is made to
    report a violation once, and the documented fallback must answer."""

    @pytest.fixture
    def fail_replays(self, monkeypatch):
        """``fail_replays(name, count)``: the first ``count`` calls of
        ``repro.simulate.<name>`` report a violation, later ones are real.
        Returns the list of calls seen (``True`` = failed on purpose)."""
        import repro.simulate as simulate
        from repro.simulate.conformance import ConformanceReport, Violation

        def install(name, count=1):
            real, calls = getattr(simulate, name), []

            def replay(*args, **kwargs):
                calls.append(len(calls) < count)
                if calls[-1]:
                    return ConformanceReport(violations=[
                        Violation(kind="capacity", message="injected")])
                return real(*args, **kwargs)

            monkeypatch.setattr(simulate, name, replay)
            return calls
        return install

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """``fallbacks(shortcut)``: ``(counter moves, events)`` since the
        test began — how far ``<shortcut>_fallbacks_total`` moved in the
        default registry, and how many ``<shortcut>.fallback`` events a
        fresh flight recorder holds."""
        from repro.obs import recorder
        from repro.obs.metrics import get_registry

        def counted():
            return {name: doc["value"]
                    for name, doc in get_registry().snapshot().items()
                    if name.endswith("_fallbacks_total")}

        ring = recorder.FlightRecorder(1 << 16)
        monkeypatch.setattr(recorder, "_recorder", ring)
        before = counted()

        def moved(shortcut):
            name = f"{shortcut}_fallbacks_total"
            events = [rec for rec in ring.snapshot()
                      if rec["kind"] == "event"
                      and rec["name"] == f"{shortcut}.fallback"]
            return (counted().get(name, 0.0) - before.get(name, 0.0),
                    len(events))
        return moved

    @staticmethod
    def _ring8_atoa(symmetry):
        from repro.solver import SolverOptions

        ring8 = topology.ring(8, capacity=1.0)
        config = TecclConfig(chunk_bytes=1.0,
                             solver=SolverOptions(symmetry=symmetry))
        return ring8, collectives.alltoall(ring8.gpus, 1), config

    def test_quotient_lp_falls_back_to_the_full_model(self, fail_replays,
                                                      fallbacks):
        from repro.core.lp import solve_lp

        topo, demand, config = self._ring8_atoa("off")
        full = solve_lp(topo, demand, config)
        topo, demand, config = self._ring8_atoa("on")
        calls = fail_replays("check_flow")
        out = solve_lp(topo, demand, config)
        assert calls == [True]
        assert out.result.stats["symmetry_fallback"] == "conformance"
        assert "symmetry_conformant" not in out.result.stats
        assert out.result.stats["horizon_attempts"] == 1
        assert out.result.objective == pytest.approx(full.result.objective)
        assert check_flow(out.schedule, topo, demand, out.plan,
                          config=config).ok
        assert fallbacks("symmetry") == (1, 1)

    def test_milp_takes_no_symmetry_shortcut(self, fail_replays,
                                             fallbacks):
        """The MILP solves its model as built: no cuts, so no gate — a
        failing replay is never consulted and nothing falls back."""
        from repro.core.milp import solve_milp
        from repro.solver import SolverOptions

        ring6 = topology.ring(6, capacity=1.0)
        demand = collectives.allgather(ring6.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0,
                             solver=SolverOptions(symmetry="on"))
        calls = fail_replays("check_schedule")
        out = solve_milp(ring6, demand, config)
        assert calls == []
        assert "symmetry_fallback" not in out.result.stats
        assert check_schedule(out.schedule, ring6, demand, out.plan,
                              config=config).ok
        assert fallbacks("symmetry") == (0, 0)

    def test_horizon_search_falls_back_to_the_cold_bisection(
            self, fail_replays, fallbacks, monkeypatch):
        from repro.core import lp as lp_module

        topo, demand, config = self._ring8_atoa("off")
        reference = lp_module.minimize_epochs_lp(topo, demand, config)
        cold_calls = []
        real_cold = lp_module._minimize_epochs_cold

        def recording_cold(*args):
            cold_calls.append(args[-1])
            return real_cold(*args)

        monkeypatch.setattr(lp_module, "_minimize_epochs_cold",
                            recording_cold)
        calls = fail_replays("check_flow")
        out = lp_module.minimize_epochs_lp(topo, demand, config)
        assert calls == [True] and len(cold_calls) == 1
        assert out.plan.num_epochs == reference.plan.num_epochs
        assert out.result.objective == pytest.approx(
            reference.result.objective)
        assert out.result.stats["horizon_search_fallback"] == "conformance"
        assert fallbacks("horizon_search") == (1, 1)

    def test_horizon_search_fallback_is_named_in_the_explain_record(
            self, fail_replays, fallbacks):
        topo, demand, config = self._ring8_atoa("off")
        fail_replays("check_flow")
        result = synthesize(topo, demand, config, minimize_epochs=True)
        assert result.explain["stats"]["horizon_search_fallback"] \
            == "conformance"
        assert check_result(result).ok
        assert fallbacks("horizon_search") == (1, 1)

    def test_pop_parallel_violation_is_resolved_sequentially(
            self, fail_replays, fallbacks):
        from repro.core.pop import solve_lp_pop

        topo, demand, config = self._ring8_atoa("off")
        reference = solve_lp_pop(topo, demand, config, num_partitions=2)
        calls = fail_replays("check_flow")
        out = solve_lp_pop(topo, demand, config, num_partitions=2,
                           jobs=2)
        assert calls == [True, False]  # parallel merge, then sequential
        assert out.schedule.flows == reference.schedule.flows
        assert fallbacks("pop") == (1, 1)

    def test_pop_sequential_violation_raises(self, fail_replays, fallbacks):
        from repro.core.pop import solve_lp_pop

        topo, demand, config = self._ring8_atoa("off")
        fail_replays("check_flow")
        with pytest.raises(ScheduleError, match="injected"):
            solve_lp_pop(topo, demand, config, num_partitions=2)
        assert fallbacks("pop") == (1, 1)

    def test_hierarchical_dedup_hit_falls_back_to_a_private_solve(
            self, fail_replays, fallbacks):
        from repro.core.hierarchical import (chassis_groups,
                                             hierarchical_allgather)
        from repro.solver import SolverOptions

        topo = topology.internal2(2)
        config = TecclConfig(chunk_bytes=1e6, solver=SolverOptions(
            mip_gap=0.2, time_limit=30))
        calls = fail_replays("check_result")
        out = hierarchical_allgather(topo, config,
                                     chassis=chassis_groups(topo, 2))
        # gather@1 hits and is refused; broadcast@1 hits and is served
        assert calls == [True, False]
        assert out.sub_solves == 4 and out.dedup_hits == 1
        first, second = out.local_gather
        assert not second.deduped
        assert second.synthesis is not first.synthesis
        assert [p.deduped for p in out.phases()] == \
            [False, False, False, False, True]
        for phase in out.phases():
            assert check_result(phase.synthesis,
                                topology=phase.fabric.topology,
                                demand=phase.demand).ok, phase.label
        assert fallbacks("hier_dedup") == (1, 1)

    @staticmethod
    def _load_first(*lines):
        """Run ``lines`` in a fresh interpreter whose ``repro`` package is
        a bare module, so no ``repro/__init__`` import order applies."""
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).parent)
        code = "\n".join([
            "import importlib, sys, types",
            "pkg = types.ModuleType('repro')",
            f"pkg.__path__ = [{src!r}]",
            # the one name a subpackage reads off the package itself
            f"pkg.__version__ = {repro.__version__!r}",
            "sys.modules['repro'] = pkg", *lines])
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)

    def test_simulate_loads_before_the_solvers(self):
        # the solver modules bind the gate's module at load; a process
        # whose first repro import is repro.simulate must load it too
        self._load_first(
            "importlib.import_module('repro.simulate')",
            "assert sys.modules['repro.core.lp'].conformance.vetted")

    @pytest.mark.parametrize("module", ["repro.core", "repro.core.lp",
                                        "repro.core.schedule",
                                        "repro.simulate", "repro.service"])
    def test_each_package_loads_first(self, module):
        # repro.core runs astar, which loads repro.collectives, whose
        # allreduce imports repro.core.solve while astar is half-built
        self._load_first(f"importlib.import_module({module!r})")
