"""Fleet control plane: telemetry, estimator, controller, orchestrator.

The satellite-mandated scenarios live here too: a flapping link must not
trigger two replans within the estimator's cool-down window, and an
adapted schedule that fails conformance must roll back (the incumbent
stays active; a non-conformant schedule can never activate).
"""

import dataclasses

import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.errors import FleetError, ServiceError
from repro.fleet import (AdaptationController, CostGate, FabricEstimator,
                         FleetJob, FleetOrchestrator, LinkEvent, LinkHealth,
                         LinkSample, ScheduleRegistry, SyntheticTelemetry,
                         TraceTelemetry, predicted_finish)
from repro.service import Planner
from repro.topology.transforms import with_capacity_overrides

pytestmark = pytest.mark.fleet


def tiny_ring(n=4):
    return topology.ring(n, capacity=1.0)


def a2a_job(topo, name="a2a", chunks=1, priority=1.0):
    return FleetJob(name=name,
                    demand=collectives.alltoall(topo.gpus, chunks),
                    config=TecclConfig(chunk_bytes=1.0 / chunks),
                    priority=priority)


@pytest.fixture
def planner():
    with Planner(executor="inline") as p:
        yield p


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class TestLinkSample:
    def test_roundtrip(self):
        sample = LinkSample(link=(0, 1), time=2.0, bandwidth=0.8,
                            latency=1e-6, loss=0.1)
        assert LinkSample.from_dict(sample.to_dict()) == sample

    def test_validation(self):
        with pytest.raises(FleetError):
            LinkSample(link=(0, 1), time=0.0, bandwidth=-1.0)
        with pytest.raises(FleetError):
            LinkSample(link=(0, 1), time=0.0, bandwidth=1.0, loss=1.5)
        with pytest.raises(FleetError):
            LinkSample.from_dict({"src": 0})

    def test_non_finite_fields_rejected(self):
        # NaN slips through ordinary comparisons and would poison the
        # estimator's EWMA for the link permanently
        for kwargs in ({"bandwidth": float("nan")},
                       {"bandwidth": float("inf")},
                       {"loss": float("nan")},
                       {"time": float("nan")}):
            with pytest.raises(FleetError):
                LinkSample(link=(0, 1), time=kwargs.pop("time", 0.0),
                           bandwidth=kwargs.pop("bandwidth", 1.0),
                           **kwargs)


class TestSyntheticTelemetry:
    def test_same_seed_same_stream(self):
        from repro.simulate import DriftModel

        topo = tiny_ring()
        streams = []
        for _ in range(2):
            source = SyntheticTelemetry(
                topo, drift=DriftModel(sigma=0.1), noise=0.05, seed=11)
            streams.append([s for _ in range(5) for s in source.poll()])
        assert streams[0] == streams[1]

    def test_scripted_degradation_window(self):
        topo = tiny_ring()
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=1.0, link=(0, 1), factor=0.5, until=3.0)])
        by_step = [
            {s.link: s.bandwidth for s in source.poll()} for _ in range(4)]
        assert by_step[0][(0, 1)] == pytest.approx(1.0)
        assert by_step[1][(0, 1)] == pytest.approx(0.5)
        assert by_step[2][(0, 1)] == pytest.approx(0.5)
        assert by_step[3][(0, 1)] == pytest.approx(1.0)  # event ended
        # other links are untouched throughout
        assert all(step[(1, 2)] == pytest.approx(1.0) for step in by_step)

    def test_down_event(self):
        topo = tiny_ring()
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=0.0, link=(2, 3), down=True)])
        samples = {s.link: s for s in source.poll()}
        assert samples[(2, 3)].bandwidth == 0.0
        assert samples[(2, 3)].loss == 1.0

    def test_unknown_event_link_rejected(self):
        with pytest.raises(FleetError):
            SyntheticTelemetry(tiny_ring(), events=[
                LinkEvent(at=0.0, link=(0, 9))])


class TestTraceTelemetry:
    def test_groups_by_time(self):
        samples = [LinkSample(link=(0, 1), time=t, bandwidth=1.0)
                   for t in (0.0, 0.0, 1.0)]
        source = TraceTelemetry(samples)
        assert len(source.poll()) == 2
        assert len(source.poll()) == 1
        assert source.poll() == [] and source.exhausted


# ----------------------------------------------------------------------
# estimator
# ----------------------------------------------------------------------
def feed(estimator, link, values, t0=0.0):
    out = []
    for i, value in enumerate(values):
        sample = LinkSample(link=link, time=t0 + float(i),
                            bandwidth=value,
                            loss=1.0 if value == 0.0 else 0.0)
        transition = estimator.observe(sample)
        if transition is not None:
            out.append(transition)
    return out


class TestEstimator:
    def test_healthy_fabric_never_transitions(self):
        topo = tiny_ring()
        estimator = FabricEstimator(topo)
        source = SyntheticTelemetry(topo)
        for _ in range(5):
            assert estimator.observe_all(source.poll()) == []
        assert estimator.snapshot()["health"]["healthy"] == len(topo.links)

    def test_degradation_detected_and_live_view_scaled(self):
        topo = tiny_ring()
        estimator = FabricEstimator(topo, smoothing=1.0)
        transitions = feed(estimator, (0, 1), [0.5, 0.5])
        assert [t.new for t in transitions] == [LinkHealth.DEGRADED]
        live = estimator.live_topology()
        assert live.links[(0, 1)].capacity == pytest.approx(0.5)
        assert live.links[(1, 2)].capacity == pytest.approx(1.0)

    def test_down_link_dropped_from_live_view(self):
        topo = tiny_ring()
        estimator = FabricEstimator(topo, smoothing=1.0)
        transitions = feed(estimator, (0, 1), [0.0, 0.0])
        assert transitions[-1].new is LinkHealth.DOWN
        assert (0, 1) not in estimator.live_topology().links

    def test_min_samples_holds_first_verdict(self):
        estimator = FabricEstimator(tiny_ring(), smoothing=1.0,
                                    min_samples=3)
        assert feed(estimator, (0, 1), [0.1, 0.1]) == []
        assert len(feed(estimator, (0, 1), [0.1], t0=2.0)) == 1

    def test_recovery_needs_margin(self):
        estimator = FabricEstimator(tiny_ring(), smoothing=1.0,
                                    degraded_below=0.8, recover_margin=0.1)
        feed(estimator, (0, 1), [0.5, 0.5])
        # hovering inside the margin band: still degraded
        assert feed(estimator, (0, 1), [0.85, 0.85], t0=2.0) == []
        # clearing the margin: healthy again
        recovered = feed(estimator, (0, 1), [0.95, 0.95], t0=4.0)
        assert [t.new for t in recovered] == [LinkHealth.HEALTHY]

    def test_cooldown_suppresses_flapping(self):
        """The satellite scenario: a flap yields one transition per window."""
        estimator = FabricEstimator(tiny_ring(), smoothing=1.0,
                                    min_samples=1, cooldown=10.0)
        flapping = [0.5, 1.0, 0.4, 1.0, 0.5, 1.0]
        transitions = feed(estimator, (0, 1), flapping)
        assert len(transitions) == 1  # only the first drop gets through
        # after the window the state can move again
        late = feed(estimator, (0, 1), [1.0], t0=20.0)
        assert [t.new for t in late] == [LinkHealth.HEALTHY]

    def test_unknown_link_rejected(self):
        estimator = FabricEstimator(tiny_ring())
        with pytest.raises(FleetError):
            estimator.observe(LinkSample(link=(0, 9), time=0.0,
                                         bandwidth=1.0))

    def test_frozen_degraded_link_keeps_positive_live_capacity(self):
        """Lost probes during a cooldown must not zero a live capacity."""
        estimator = FabricEstimator(tiny_ring(), smoothing=1.0,
                                    min_samples=1, cooldown=10.0)
        feed(estimator, (0, 1), [0.5])        # transition to DEGRADED
        feed(estimator, (0, 1), [0.0], t0=1)  # all probes lost, frozen
        live = estimator.live_topology()      # must not raise
        assert live.links[(0, 1)].capacity > 0

    def test_unrecoverable_threshold_combo_rejected(self):
        with pytest.raises(FleetError):
            FabricEstimator(tiny_ring(), degraded_below=0.95,
                            recover_margin=0.1)

    def test_degraded_factor_capped_at_declared_capacity(self):
        # a frozen DEGRADED link whose EWMA wandered above declared
        # capacity must not advertise bandwidth the fabric does not have
        estimator = FabricEstimator(tiny_ring(), smoothing=1.0,
                                    min_samples=1, cooldown=10.0)
        feed(estimator, (0, 1), [0.5])        # transition to DEGRADED
        feed(estimator, (0, 1), [1.3], t0=1)  # noise spike, still frozen
        assert estimator.live_topology().links[(0, 1)].capacity \
            == pytest.approx(1.0)


# ----------------------------------------------------------------------
# cost gate + prediction
# ----------------------------------------------------------------------
class TestCostGateAndPrediction:
    def test_gate_ignores_noise_and_acts_on_regressions(self):
        gate = CostGate(min_regression=0.1, amortize_iterations=100)
        assert not gate.should_replan(predicted=1.04, active=1.0,
                                      solve_cost=1.0)
        assert gate.should_replan(predicted=2.0, active=1.0, solve_cost=1.0)
        assert gate.should_replan(predicted=float("inf"), active=1.0,
                                  solve_cost=1.0)
        # a regression too small to amortise the solve is kept
        assert not gate.should_replan(predicted=1.2, active=1.0,
                                      solve_cost=1000.0)

    def test_predicted_finish_scales_with_worst_used_link(self, planner):
        topo = tiny_ring()
        request_demand = collectives.alltoall(topo.gpus, 1)
        from repro.core.solve import synthesize

        result = synthesize(topo, request_demand,
                            TecclConfig(chunk_bytes=1.0))
        live = with_capacity_overrides(topo, {(0, 1): 0.5})
        predicted = predicted_finish(result, topo, live)
        assert predicted == pytest.approx(result.finish_time / 0.5)
        # a dead used link breaks the schedule outright
        dead = with_capacity_overrides(topo, {}, drop=[(0, 1)])
        assert predicted_finish(result, topo, dead) == float("inf")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def _result(self, topo):
        from repro.core.solve import synthesize

        return synthesize(topo, collectives.alltoall(topo.gpus, 1),
                          TecclConfig(chunk_bytes=1.0))

    def test_activation_requires_conformance_pass(self):
        registry = ScheduleRegistry()
        entry = registry.propose("job", self._result(tiny_ring()), 0.0)
        with pytest.raises(FleetError):
            registry.activate(entry)  # verdict still None
        entry.conformance_ok = False
        with pytest.raises(FleetError):
            registry.activate(entry)
        entry.conformance_ok = True
        assert registry.activate(entry).status.value == "active"

    def test_rollback_keeps_incumbent(self):
        registry = ScheduleRegistry()
        result = self._result(tiny_ring())
        first = registry.propose("job", result, 0.0)
        first.conformance_ok = True
        registry.activate(first)
        second = registry.propose("job", result, 1.0)
        second.conformance_ok = False
        registry.rollback(second, "failed replay")
        assert registry.active("job") is first
        counts = registry.counts()
        assert counts["active"] == 1 and counts["rolled_back"] == 1


# ----------------------------------------------------------------------
# controller
# ----------------------------------------------------------------------
class TestController:
    def test_end_to_end_adaptation(self, planner):
        topo = tiny_ring()
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=1.0, link=(0, 1), factor=0.4)])
        daemon = AdaptationController(topo, source, planner)
        initial = daemon.add_job(a2a_job(topo))
        for _ in range(4):
            daemon.step()
        stats = daemon.stats()
        assert stats["transitions"] >= 1
        assert stats["replans"] >= 1 and stats["rollbacks"] == 0
        active = daemon.registry.active("a2a")
        assert active is not initial and active.conformance_ok is True

    def test_degradation_replan_climbs_no_rung_a_cold_solve_would_not(
            self, planner):
        """The incumbent is not a horizon estimate: a replan is a plain
        ``plan_batch`` on the live fabric, answered on the rung — and at
        the K — a cold ``synthesize`` of that fabric is."""
        from repro.core.solve import synthesize

        topo = tiny_ring(6)
        job = a2a_job(topo, chunks=2)
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=1.0, link=(0, 1), factor=0.5)])
        daemon = AdaptationController(topo, source, planner)
        initial = daemon.add_job(job)
        for _ in range(4):
            daemon.step()
        assert daemon.stats()["replans"] == 1
        active = daemon.registry.active("a2a")
        assert active is not initial
        cold = synthesize(daemon.estimator.live_topology(), job.demand,
                          job.config)
        assert active.result.explain["stats"]["horizon_attempts"] == 1
        assert active.result.explain["horizon_epochs"] == \
            cold.plan.num_epochs

    def test_flap_triggers_at_most_one_replan(self, planner):
        """Satellite: no two replans within the estimator's cool-down."""
        topo = tiny_ring()
        # two flaps inside one 10-second cool-down window
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=1.0, link=(0, 1), factor=0.4, until=2.0),
            LinkEvent(at=3.0, link=(0, 1), factor=0.4, until=4.0)])
        estimator = FabricEstimator(topo, smoothing=1.0, min_samples=1,
                                    cooldown=10.0)
        daemon = AdaptationController(topo, source, planner,
                                      estimator=estimator)
        daemon.add_job(a2a_job(topo))
        for _ in range(6):
            daemon.step()
        stats = daemon.stats()
        assert stats["transitions"] == 1
        assert stats["replans"] == 1

    def test_rollback_on_nonconformant_replan(self, planner):
        """Satellite: a corrupted replan rolls back; incumbent survives."""

        class CorruptingPlanner(Planner):
            corrupt = False

            def plan_batch(self, requests, *, timeout=None):
                responses = super().plan_batch(requests, timeout=timeout)
                if self.corrupt:
                    for response in responses:
                        # claim a finish the replay cannot reproduce
                        response.result = dataclasses.replace(
                            response.result,
                            finish_time=response.result.finish_time / 2)
                return responses

        topo = tiny_ring()
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=1.0, link=(0, 1), factor=0.4)])
        with CorruptingPlanner(executor="inline") as corrupting:
            daemon = AdaptationController(topo, source, corrupting)
            incumbent = daemon.add_job(a2a_job(topo))
            corrupting.corrupt = True
            decisions = []
            for _ in range(4):
                decisions.extend(daemon.step())
            stats = daemon.stats()
            assert stats["rollbacks"] >= 1 and stats["replans"] == 0
            assert any(d.action == "rollback" for d in decisions)
            # the incumbent never left; nothing non-conformant activated
            assert daemon.registry.active("a2a") is incumbent
            for entry in daemon.registry.history:
                if entry.status.value in ("active", "retired"):
                    assert entry.conformance_ok is True

    def test_cost_gate_keep_decision(self, planner):
        topo = tiny_ring()
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=1.0, link=(0, 1), factor=0.6)])
        daemon = AdaptationController(
            topo, source, planner,
            gate=CostGate(min_regression=10.0))  # nothing clears this bar
        daemon.add_job(a2a_job(topo))
        decisions = []
        for _ in range(4):
            decisions.extend(daemon.step())
        assert decisions and all(d.action == "keep" for d in decisions)
        assert daemon.stats()["replans"] == 0

    def test_failed_replan_keeps_incumbent(self, planner):
        # a bidirectional line partitions when the middle cable dies
        topo = topology.line(3, capacity=1.0)
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=1.0, link=(0, 1), down=True),
            LinkEvent(at=1.0, link=(1, 0), down=True)])
        estimator = FabricEstimator(topo, smoothing=1.0)
        daemon = AdaptationController(topo, source, planner,
                                      estimator=estimator)
        incumbent = daemon.add_job(a2a_job(topo))
        decisions = []
        for _ in range(4):
            decisions.extend(daemon.step())
        assert any(d.action == "failed" for d in decisions)
        assert daemon.registry.active("a2a") is incumbent

    def test_regressions_measured_against_the_planning_fabric(self, planner):
        """A paid-for degradation must not inflate later regressions.

        After the job replans onto the degraded fabric, a second, milder
        event elsewhere must be gated on its *own* regression — against
        the declared fabric the old 0.3-capacity link would be charged
        again (3.3x predicted) and the gate could never keep.
        """
        topo = tiny_ring(6)
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=1.0, link=(0, 1), factor=0.3),
            LinkEvent(at=3.0, link=(2, 3), factor=0.7)])
        estimator = FabricEstimator(topo, smoothing=1.0, min_samples=1)
        daemon = AdaptationController(
            topo, source, planner, estimator=estimator,
            gate=CostGate(min_regression=1.0))  # replan only on >= 2x
        daemon.add_job(a2a_job(topo))
        decisions = []
        for _ in range(5):
            decisions.extend(daemon.step())
        by_action = {d.action for d in decisions}
        assert "replan" in by_action  # the 0.3 event clears the 2x bar
        keeps = [d for d in decisions if d.action == "keep"]
        assert keeps, decisions  # the 0.7 event must NOT (1.43x < 2x)
        # the keep's prediction reflects only the new event's stretch
        assert keeps[-1].predicted == pytest.approx(
            keeps[-1].active_finish / 0.7)

    def test_recovery_probe_restores_the_fast_schedule(self, planner):
        """A healed link is exploited again, not ignored forever."""
        topo = tiny_ring()
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=1.0, link=(0, 1), factor=0.3, until=3.0)])
        estimator = FabricEstimator(topo, smoothing=1.0, min_samples=1)
        daemon = AdaptationController(topo, source, planner,
                                      estimator=estimator)
        baseline = daemon.add_job(a2a_job(topo)).result.finish_time
        decisions = []
        for _ in range(5):
            decisions.extend(daemon.step())
        degraded = [d for d in decisions
                    if d.action == "replan" and d.new_finish > baseline]
        recovered = [d for d in decisions
                     if d.action == "replan" and "recovery" in d.reason]
        assert degraded and recovered
        # after recovery the fleet is back on the healthy-fabric optimum
        active = daemon.registry.active("a2a")
        assert active.result.finish_time == pytest.approx(baseline)

    def test_failed_admission_leaves_no_ghost_job(self):
        class ExplodingPlanner(Planner):
            def plan(self, request, **kwargs):
                raise ServiceError("solver pool on fire")

        topo = tiny_ring()
        with ExplodingPlanner(executor="inline") as exploding:
            daemon = AdaptationController(topo, SyntheticTelemetry(topo),
                                          exploding)
            with pytest.raises(ServiceError):
                daemon.add_job(a2a_job(topo))
            assert daemon.status()["jobs"] == {}  # no ghost admitted
        # the same name admits cleanly on a working planner
        with Planner(executor="inline") as working:
            daemon = AdaptationController(topo, SyntheticTelemetry(topo),
                                          working)
            daemon.add_job(a2a_job(topo))
            assert daemon.registry.active("a2a") is not None

    def test_duplicate_job_rejected(self, planner):
        topo = tiny_ring()
        daemon = AdaptationController(topo, SyntheticTelemetry(topo),
                                      planner)
        daemon.add_job(a2a_job(topo))
        with pytest.raises(FleetError):
            daemon.add_job(a2a_job(topo))

    def test_daemon_thread_lifecycle(self, planner):
        topo = tiny_ring()
        daemon = AdaptationController(topo, SyntheticTelemetry(topo),
                                      planner)
        daemon.add_job(a2a_job(topo))
        daemon.start(interval=0.01)
        with pytest.raises(FleetError):
            daemon.start(interval=0.01)
        import time

        time.sleep(0.15)
        daemon.stop()
        assert daemon.stats()["polls"] >= 2
        daemon.stop()  # idempotent

    def test_daemon_survives_step_exceptions(self, planner):
        class FlakySource(SyntheticTelemetry):
            blown = False

            def poll(self):
                if not self.blown:
                    type(self).blown = True
                    raise RuntimeError("collector hiccup")
                return super().poll()

        import time

        topo = tiny_ring()
        daemon = AdaptationController(topo, FlakySource(topo), planner)
        daemon.add_job(a2a_job(topo))
        daemon.start(interval=0.01)
        time.sleep(0.15)
        daemon.stop()
        stats = daemon.stats()
        assert stats["errors"] == 1
        assert "collector hiccup" in daemon.last_error
        assert stats["polls"] >= 1  # the loop kept ticking afterwards
        assert daemon.status()["last_error"] == daemon.last_error


# ----------------------------------------------------------------------
# orchestrator
# ----------------------------------------------------------------------
class TestOrchestrator:
    def test_priority_shares(self, planner):
        topo = tiny_ring()
        fleet = FleetOrchestrator(topo, SyntheticTelemetry(topo), planner)
        fleet.add_job(a2a_job(topo, name="gold", priority=3.0))
        fleet.add_job(a2a_job(topo, name="scavenger", chunks=2, priority=1.0))
        assert fleet.share("gold") == pytest.approx(0.75)
        assert fleet.share("scavenger") == pytest.approx(0.25)
        with pytest.raises(FleetError):
            fleet.share("nobody")

    def test_admission_rescales_incumbents(self, planner):
        topo = tiny_ring()
        fleet = FleetOrchestrator(topo, SyntheticTelemetry(topo), planner)
        solo = fleet.add_job(a2a_job(topo, name="first"))
        solo_finish = solo.result.finish_time
        fleet.add_job(a2a_job(topo, name="second", chunks=2))
        rescaled = fleet.registry.active("first")
        # half the capacity share: the same collective takes ~2x as long
        assert rescaled.result.finish_time == pytest.approx(2 * solo_finish)
        assert rescaled.conformance_ok is True

        fleet.remove_job("second")
        regrown = fleet.registry.active("first")
        assert regrown.result.finish_time == pytest.approx(solo_finish)

    def test_degradation_fans_out_across_jobs(self, planner):
        topo = tiny_ring()
        source = SyntheticTelemetry(topo, events=[
            LinkEvent(at=1.0, link=(0, 1), factor=0.3)])
        fleet = FleetOrchestrator(topo, source, planner)
        fleet.add_job(a2a_job(topo, name="one"))
        fleet.add_job(a2a_job(topo, name="two", chunks=2))
        admission_replans = fleet.stats()["replans"]
        for _ in range(4):
            fleet.step()
        stats = fleet.stats()
        # both jobs adapted in one degradation fan-out
        assert stats["replans"] - admission_replans == 2
        status = fleet.status()
        assert status["shares"] == {"one": 0.5, "two": 0.5}
        for name in ("one", "two"):
            assert fleet.registry.active(name).conformance_ok is True
