"""Integration tests for the A* round decomposition (§4.2, Appendix D).

Every ``solve_astar`` call draws its arguments from the named instance table
in ``conftest.py`` (``astar_instance``), so the golden output pins at the
bottom cover exactly the instances the behavioural tests run.
"""

import json
from pathlib import Path

import pytest

from repro import collectives, topology
from repro.core import TecclConfig, solve_milp
from repro.core.astar import solve_astar
from repro.core.config import AStarConfig
from repro.errors import ModelError
from repro.simulate import check_schedule

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "astar_outputs.json").read_text())


def cfg(**kwargs) -> TecclConfig:
    return TecclConfig(chunk_bytes=1.0, **kwargs)


class TestCorrectness:
    def test_ring_allgather_valid(self, astar_instance):
        topo, demand, config, astar = astar_instance("ring4_ag_r3")
        out = solve_astar(topo, demand, config, astar)
        report = check_schedule(out.schedule, topo, demand,
                                out.plan).raise_on_violation()
        assert report.ok
        assert out.num_rounds >= 1

    def test_multi_round_line(self, astar_instance):
        """A 6-node line forces multiple rounds at 3 epochs per round."""
        topo, demand, config, astar = astar_instance("line6_bcast_r3")
        out = solve_astar(topo, demand, config, astar)
        assert out.num_rounds >= 2
        check_schedule(out.schedule, topo, demand,
                       out.plan).raise_on_violation()

    def test_progress_carries_across_rounds(self, astar_instance):
        topo, demand, config, astar = astar_instance("line5_bcast2_r2")
        out = solve_astar(topo, demand, config, astar)
        check_schedule(out.schedule, topo, demand,
                       out.plan).raise_on_violation()
        # the chunk advances at least one hop per round
        assert out.num_rounds <= 5

    def test_with_alpha_delays(self, astar_instance):
        topo, demand, config, astar = astar_instance("line4_alpha_r4")
        out = solve_astar(topo, demand, config, astar)
        check_schedule(out.schedule, topo, demand,
                       out.plan).raise_on_violation()

    def test_switch_topology(self, astar_instance):
        topo, demand, config, astar = astar_instance("internal2x2_ag")
        out = solve_astar(topo, demand, config, astar)
        report = check_schedule(out.schedule, topo, demand,
                                out.plan).raise_on_violation()
        assert report.ok

    def test_slow_link_occupancy_respected_across_rounds(self,
                                                         astar_instance):
        """Regression: κ>1 transmissions must not overlap round boundaries.

        Found by hypothesis: a chunk occupying a slow link for 2 epochs at
        the end of round r collided with a round r+1 send on the same link.
        """
        topo, demand, config, astar = astar_instance("mixed_kappa2_r3")
        out = solve_astar(topo, demand, config, astar)
        report = check_schedule(out.schedule, topo, demand,
                                out.plan).raise_on_violation()
        assert report.ok, report.violations


class TestQualityVsOptimal:
    def test_astar_close_to_milp(self, ring4, ag_ring4, astar_instance):
        """§6.3: the optimal is better, but only by a bounded factor."""
        opt = solve_milp(ring4, ag_ring4, cfg(num_epochs=6))
        approx = solve_astar(*astar_instance("ring4_ag_r3"))
        assert approx.finish_time >= opt.finish_time - 1e-9
        assert approx.finish_time <= 3 * opt.finish_time

    def test_single_round_matches_milp_when_horizon_suffices(
            self, ring4, ag_ring4, astar_instance):
        opt = solve_milp(ring4, ag_ring4, cfg(num_epochs=6))
        one_round = solve_astar(*astar_instance("ring4_ag_r6"))
        assert one_round.num_rounds == 1
        assert one_round.schedule.finish_epoch <= 6
        assert one_round.finish_time <= opt.finish_time * 1.5 + 1e-9


class TestConfig:
    def test_round_must_exceed_link_delay(self):
        topo = topology.line(3, capacity=1.0, alpha=5.0)
        demand = collectives.broadcast(0, [2], 1)
        with pytest.raises(ModelError, match="epochs_per_round"):
            solve_astar(topo, demand, cfg(),
                        AStarConfig(epochs_per_round=2))

    def test_default_round_size_adapts(self, astar_instance):
        out = solve_astar(*astar_instance("line3_alpha3_default"))
        assert out.plan.num_epochs >= 4

    def test_config_validation(self):
        with pytest.raises(ModelError):
            AStarConfig(epochs_per_round=1)
        with pytest.raises(ModelError):
            AStarConfig(gamma=0.0)
        with pytest.raises(ModelError):
            AStarConfig(max_rounds=0)

    def test_round_stats_recorded(self, astar_instance):
        out = solve_astar(*astar_instance("ring4_ag_r3"))
        assert len(out.rounds) == out.num_rounds
        assert all(r.solve_time >= 0 for r in out.rounds)
        assert out.solve_time == pytest.approx(
            sum(r.solve_time for r in out.rounds))


def astar_output(out) -> dict:
    return {
        "sends": [[s.epoch, s.source, s.chunk, s.src, s.dst]
                  for s in out.raw_schedule.sends],
        "num_rounds": out.num_rounds,
        "finish_time": out.finish_time,
    }


class TestPinnedOutputs:
    """The round models are bit-identical to the ones the expression-path
    builder produced (``test_model_equivalence.py``), so HiGHS returns the
    same point: schedules are pinned send-for-send."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_schedule_identical_to_pin(self, name, astar_instance):
        got = astar_output(solve_astar(*astar_instance(name)))
        pin = GOLDEN[name]
        assert got["sends"] == pin["sends"]
        assert got["num_rounds"] == pin["num_rounds"]
        assert got["finish_time"] == pytest.approx(pin["finish_time"],
                                                   abs=1e-12)
