"""Integration tests for the general MILP formulation (§3.1).

Each test solves a small instance where the optimum is known by hand and
checks both the solver's answer and the simulator's independent validation.
"""

import pytest

from repro import collectives, topology
from repro.core import TecclConfig, solve_milp, synthesize
from repro.core import epochs as epochs_module
from repro.core.config import EpochMode, SwitchModel
from repro.core.epochs import build_epoch_plan
from repro.core.milp import MilpBuilder
from repro.errors import InfeasibleError, ModelError
from repro.simulate import check_schedule
from repro.solver import SolverOptions
from repro.topology import to_hyper_edges


def cfg(num_epochs=None, **kwargs) -> TecclConfig:
    return TecclConfig(chunk_bytes=1.0, num_epochs=num_epochs, **kwargs)


class TestBroadcastLine:
    def test_two_hops_two_epochs(self, line3):
        demand = collectives.broadcast(0, [1, 2], 1)
        out = solve_milp(line3, demand, cfg(4))
        assert out.schedule.finish_epoch == 1
        check_schedule(out.schedule, line3, demand,
                       out.plan).raise_on_violation()

    def test_horizon_too_short_is_infeasible(self, line3):
        demand = collectives.broadcast(0, [2], 1)
        with pytest.raises(InfeasibleError):
            solve_milp(line3, demand, cfg(1))

    def test_exact_minimum_horizon_feasible(self, line3):
        demand = collectives.broadcast(0, [2], 1)
        out = solve_milp(line3, demand, cfg(2))
        assert out.schedule.finish_epoch == 1

    def test_undershooting_bound_is_answered_on_the_third_rung(
            self, monkeypatch):
        """Seven hops need K >= 7: with the bound undershooting (3) the
        ladder succeeds on its third rung, K=12."""
        monkeypatch.setattr(epochs_module, "path_based_epoch_bound",
                            lambda topology, demand, plan, copy=None: 3)
        line8 = topology.line(8, capacity=1.0)
        demand = collectives.broadcast(0, line8.gpus, 1)
        out = solve_milp(line8, demand, cfg())
        assert out.plan.num_epochs == 12
        assert out.result.stats["horizon_attempts"] == 3
        check_schedule(out.schedule, line8, demand,
                       out.plan).raise_on_violation()


class TestRingAllgather:
    def test_optimal_finish(self, ring4, ag_ring4):
        out = solve_milp(ring4, ag_ring4, cfg(6))
        # bidirectional 4-ring: farthest chunk needs 2 hops; every node can
        # receive its 3 chunks over 2 in-links in 2 epochs.
        assert out.schedule.finish_epoch == 1
        report = check_schedule(out.schedule, ring4, ag_ring4,
                                out.plan).raise_on_violation()
        assert report.finish_time == pytest.approx(out.finish_time)

    def test_prune_removes_noise(self, ring4, ag_ring4):
        out = solve_milp(ring4, ag_ring4, cfg(8))
        assert out.schedule.num_sends <= out.raw_schedule.num_sends
        check_schedule(out.schedule, ring4, ag_ring4,
                       out.plan).raise_on_violation()

    def test_copy_reduces_bytes_on_wire(self, ring4, ag_ring4):
        out = solve_milp(ring4, ag_ring4, cfg(6))
        # lower bound: every GPU must receive 3 chunks => >= 12 arrivals
        assert out.schedule.num_sends >= 12
        # with copy nothing needs to be sent twice on any link
        per_link = {}
        for send in out.schedule.sends:
            key = (send.commodity, send.link)
            per_link[key] = per_link.get(key, 0) + 1
        assert all(v == 1 for v in per_link.values())


class TestAlphaDelay:
    def test_forwarding_waits_for_alpha(self):
        topo = topology.line(3, capacity=1.0, alpha=1.5)
        demand = collectives.broadcast(0, [2], 1)
        out = solve_milp(topo, demand, cfg(8))
        check_schedule(out.schedule, topo, demand,
                       out.plan).raise_on_violation()
        hops = sorted(out.schedule.sends)
        # alpha=1.5, tau=1 -> Delta=2: second hop at epoch >= first + 3
        assert hops[1].epoch >= hops[0].epoch + 3

    def test_figure_1a_pipelining(self):
        """The Fig. 1(a) example: TE-CCL overlaps the slow-alpha branch.

        Both chunks reach h3 simultaneously (that is the example's design),
        so the correct finish is alpha2 + 3*beta — one beta less than the
        traditional max-path-delay estimate of alpha2 + 4*beta.
        """
        topo = topology.alpha_motivation_line()
        demand = collectives.Demand.from_triples([(0, 0, 4), (5, 0, 4)])
        config = TecclConfig(chunk_bytes=1e9, num_epochs=12)
        out = solve_milp(topo, demand, config)
        report = check_schedule(out.schedule, topo, demand,
                                out.plan).raise_on_violation()
        alpha1, beta = 1.0, 1.0
        alpha2 = 2 * beta + 3 * alpha1
        assert report.finish_time <= alpha2 + 3 * beta + 1e-6
        # and strictly beats the naive TE estimate
        assert report.finish_time < alpha2 + 4 * beta


class TestSwitchModels:
    def test_switch_copy_allgather(self, star3):
        demand = collectives.allgather(star3.gpus, 1)
        out = solve_milp(star3, demand, cfg(6))
        report = check_schedule(out.schedule, star3, demand,
                                out.plan).raise_on_violation()
        assert report.ok
        # 6 fan-out deliveries over 3 dst links need >= 2 fan-out epochs, so
        # the collective finishes at epoch 2 (inject at 0/1, fan out at 1/2).
        assert out.schedule.finish_epoch == 2
        # SHArP-style copy: strictly fewer injections than the 6 a
        # copy-less switch would need
        into_switch = [s for s in out.schedule.sends if s.dst == 3]
        assert 3 <= len(into_switch) < 6

    def test_switch_no_copy_needs_more_sends(self, star3):
        demand = collectives.allgather(star3.gpus, 1)
        with_copy = solve_milp(star3, demand, cfg(8))
        no_copy = solve_milp(star3, demand,
                             cfg(8, switch_model=SwitchModel.NO_COPY))
        assert no_copy.schedule.num_sends >= with_copy.schedule.num_sends
        # without copy each GPU must inject its chunk twice
        into_switch = [s for s in no_copy.schedule.sends if s.dst == 3]
        assert len(into_switch) == 6

    def test_no_copy_finish_not_better(self, star3):
        demand = collectives.allgather(star3.gpus, 1)
        with_copy = solve_milp(star3, demand, cfg(8))
        no_copy = solve_milp(star3, demand,
                             cfg(8, switch_model=SwitchModel.NO_COPY))
        assert no_copy.finish_time >= with_copy.finish_time - 1e-9

    def test_hyper_edge_model(self):
        topo = topology.star(3)
        demand = collectives.allgather(topo.gpus, 1)
        hyper = to_hyper_edges(topo)
        config = cfg(6, switch_model=SwitchModel.HYPER_EDGE)
        out = solve_milp(hyper.topology, demand, config,
                         hyper_groups=hyper.groups)
        plan = out.plan
        # per-epoch usage of the switch's hyper-edges never exceeds the limit
        for k in range(plan.num_epochs):
            used = sum(1 for s in out.schedule.sends if s.epoch == k)
            assert used <= hyper.groups[0].usage_limit

    def test_hyper_edge_rejects_untransformed_topology(self, star3):
        demand = collectives.allgather(star3.gpus, 1)
        with pytest.raises(ModelError, match="hyper-edge"):
            solve_milp(star3, demand,
                       cfg(6, switch_model=SwitchModel.HYPER_EDGE))


class TestStoreAndForward:
    def test_disabling_buffers_keeps_quality(self, ring4, ag_ring4):
        """Figure 9's claim: buffers change solver time, not quality."""
        with_sf = solve_milp(ring4, ag_ring4, cfg(6))
        without = solve_milp(ring4, ag_ring4,
                             cfg(6, store_and_forward=False))
        assert without.schedule.finish_epoch == with_sf.schedule.finish_epoch
        check_schedule(without.schedule, ring4, ag_ring4,
                       without.plan).raise_on_violation()

    def test_relay_is_immediate_without_sf(self):
        topo = topology.line(4, capacity=1.0)
        demand = collectives.broadcast(0, [3], 1)
        out = solve_milp(topo, demand, cfg(8, store_and_forward=False))
        hops = sorted(out.schedule.sends)
        for a, b in zip(hops, hops[1:]):
            assert b.epoch == a.epoch + 1  # no waiting allowed


class TestLimitedBuffers:
    def test_relay_buffer_limit_respected(self):
        """Appendix B: cap the relay buffer and check B stays within it."""
        topo = topology.line(3, capacity=2.0)
        demand = collectives.Demand.from_triples(
            [(0, c, 2) for c in range(4)])
        out = solve_milp(topo, demand, cfg(8, buffer_limit_chunks=1))
        check_schedule(out.schedule, topo, demand,
                       out.plan).raise_on_violation()
        # node 1 relays every chunk but may hold at most 1 at a time:
        # count, per epoch, chunks that arrived at 1 but not yet left
        arrivals = {}
        departures = {}
        for send in out.schedule.sends:
            if send.dst == 1:
                arrivals[send.chunk] = send.epoch + 1
            if send.src == 1:
                departures[send.chunk] = send.epoch
        for k in range(8):
            holding = sum(
                1 for c in arrivals
                if arrivals[c] <= k < departures.get(c, 10**9))
            assert holding <= 1 + 1  # in-flight chunk leaves next epoch

    def test_unlimited_default(self, ring4, ag_ring4):
        out = solve_milp(ring4, ag_ring4, cfg(6))
        assert out.result.status.has_solution


class TestEpochModes:
    def test_fastest_vs_slowest_quality(self):
        """Figure 8: finer epochs give equal-or-better schedules."""
        topo = topology.Topology("h", num_nodes=3)
        topo.add_bidirectional(0, 1, 4.0)
        topo.add_bidirectional(1, 2, 1.0)
        demand = collectives.broadcast(0, [1, 2], 2)
        fast = solve_milp(topo, demand, TecclConfig(
            chunk_bytes=4.0, num_epochs=20,
            epoch_mode=EpochMode.FASTEST_LINK))
        slow = solve_milp(topo, demand, TecclConfig(
            chunk_bytes=4.0, num_epochs=8,
            epoch_mode=EpochMode.SLOWEST_LINK))
        assert fast.finish_time <= slow.finish_time + 1e-9

    def test_windowed_capacity_respected(self):
        topo = topology.Topology("h", num_nodes=2)
        topo.add_bidirectional(0, 1, 1.0)
        # tau set by a "virtual" fast link via multiplier < 1
        config = TecclConfig(chunk_bytes=4.0, num_epochs=16,
                             epoch_mode=EpochMode.SLOWEST_LINK,
                             epoch_multiplier=0.25)
        demand = collectives.Demand.from_triples([(0, c, 1) for c in range(2)])
        out = solve_milp(topo, demand, config)
        check_schedule(out.schedule, topo, demand,
                       out.plan).raise_on_violation()
        # slow link fits one chunk per 4 epochs
        epochs = sorted(s.epoch for s in out.schedule.sends)
        assert epochs[1] - epochs[0] >= 4


class TestVariableBandwidth:
    def test_capacity_fn_blocks_epochs(self):
        topo = topology.line(2, capacity=1.0)
        demand = collectives.Demand.from_triples([(0, 0, 1)])

        def capacity_fn(i, j, k):
            return 1.0 if k >= 3 else 1e-9  # link dark until epoch 3

        config = TecclConfig(chunk_bytes=1.0, num_epochs=6,
                             epoch_mode=EpochMode.SLOWEST_LINK,
                             capacity_fn=capacity_fn)
        out = solve_milp(topo, demand, config)
        assert all(s.epoch >= 3 for s in out.schedule.sends)

    def test_capacity_fn_requires_unit_occupancy(self):
        topo = topology.Topology("h", num_nodes=3)
        topo.add_bidirectional(0, 1, 4.0)
        topo.add_bidirectional(1, 2, 1.0)
        config = TecclConfig(chunk_bytes=4.0, num_epochs=4,
                             epoch_mode=EpochMode.FASTEST_LINK,
                             capacity_fn=lambda i, j, k: 1.0)
        demand = collectives.broadcast(0, [2], 1)
        with pytest.raises(ModelError, match="time-varying"):
            solve_milp(topo, demand, config)


class TestPriorities:
    def test_high_priority_tenant_finishes_first(self):
        # one relay link, two competing transfers: priority breaks the tie
        topo = topology.line(2, capacity=1.0)
        demand = collectives.Demand.from_triples([(0, 0, 1), (0, 1, 1)])
        high_on_1 = cfg(4, priorities={(0, 1, 1): 10.0, (0, 0, 1): 1.0})
        out = solve_milp(topo, demand, high_on_1)
        first = min(out.schedule.sends)
        assert first.chunk == 1

    def test_weights_default_to_one(self):
        config = cfg(4)
        assert config.weight(0, 0, 1) == 1.0


class TestEarlyStop:
    def test_gap_limited_solution_still_valid(self, dgx1):
        demand = collectives.allgather(dgx1.gpus, 1)
        config = TecclConfig(chunk_bytes=25e3, num_epochs=10,
                             solver=SolverOptions(mip_gap=0.3))
        out = solve_milp(dgx1, demand, config)
        check_schedule(out.schedule, dgx1, demand,
                       out.plan).raise_on_violation()

    def test_objective_prefers_early_delivery(self, line3):
        demand = collectives.broadcast(0, [1], 1)
        out = solve_milp(line3, demand, cfg(6))
        # delivery could happen at any epoch; the objective forces epoch 0
        assert out.delivered_epoch[(0, 0, 1)] == 0


class TestBuilderInternals:
    def test_variable_elimination_shrinks_model(self, ring4, ag_ring4):
        plan = build_epoch_plan(ring4, cfg(6), 6)
        tight = MilpBuilder(ring4, ag_ring4, cfg(6), plan).build()
        # a chunk cannot be 3+ hops away after 1 epoch: F vars must be
        # fewer than the dense count
        dense = (ag_ring4.num_commodities * len(ring4.links) * 6)
        assert len(tight.f_vars) < dense

    def test_unreachable_destination_raises(self):
        topo = topology.line(2, capacity=1.0)
        demand = collectives.Demand.from_triples([(0, 0, 1)])
        plan = build_epoch_plan(topo, cfg(4), 4)
        builder = MilpBuilder(topo, demand, cfg(4), plan)
        problem = builder.build()
        assert problem.model.num_vars > 0


class TestLedgerMilps:
    """The perf ledger's MILPs solve on the full model: no lex-leader cuts,
    the same finish and objective the cut MILPs reached (within 1e-9)."""

    @pytest.mark.parametrize("name, chunks, num_epochs, degrade, finish, "
                             "objective", [
                                 ("dgx1-ag-milp", 1, None, False, 3.2e-06,
                                  76.35415695415696),
                                 ("dgx1-degraded-ag-2chunk-K14", 2, 14, True,
                                  4.2000000000000004e-06,
                                  127.28688533688535)],
                             ids=["dgx1-ag-milp",
                                  "dgx1-degraded-ag-2chunk-K14"])
    def test_same_answer_without_cuts(self, name, chunks, num_epochs,
                                      degrade, finish, objective):
        topo = topology.dgx1()
        if degrade:
            key = min(k for k in topo.links if not set(k) & topo.switches)
            topo = topology.with_capacity_overrides(topo, {key: 0.5})
        demand = collectives.allgather(topo.gpus, chunks)
        result = synthesize(topo, demand, TecclConfig(
            chunk_bytes=25e3, num_epochs=num_epochs))
        stats = result.outcome.result.stats
        assert result.finish_time == pytest.approx(finish, rel=1e-9)
        assert result.outcome.result.objective == pytest.approx(
            objective, rel=1e-9)
        assert not {"symmetry_cuts", "symmetry_group_order",
                    "symmetry_fallback"} & set(stats)
        report = check_schedule(result.schedule, topo, demand, result.plan)
        assert report.ok, [str(v) for v in report.violations[:3]]
