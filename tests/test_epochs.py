"""Unit tests for epoch duration, discretisation and horizon estimation."""

import heapq
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.collectives import allgather, alltoall, broadcast, gather, scatter
from repro.core import TecclConfig, solve_lp, solve_milp, synthesize
from repro.core.config import EpochMode
from repro.core import epochs as epochs_module
from repro.collectives.demand import Demand
from repro.core.epochs import (UNREACHABLE, build_epoch_plan,
                               earliest_arrival_epochs, epoch_duration,
                               horizon_bound, horizon_ladder,
                               path_based_epoch_bound, plan_with_tau,
                               reachability)
from repro.errors import ModelError
from repro.simulate import check_flow, check_result, check_schedule
from repro.simulate.harness import random_instance, run_producer
from repro.topology import (Topology, dgx1, full_mesh, hypercube, line, ring,
                            torus2d, with_capacity_overrides)

#: first rungs at 791f48f (one shortest path per pair, one unit of load per
#: destination): the 24 sweep seeds of ``random_instance`` and FABRICS
PARENT = json.loads(
    (Path(__file__).parent / "golden" / "horizon_bounds.json").read_text())


def hetero_topo() -> Topology:
    """Two links: 4 B/s fast and 1 B/s slow."""
    topo = Topology("hetero", num_nodes=3)
    topo.add_bidirectional(0, 1, 4.0)
    topo.add_bidirectional(1, 2, 1.0)
    return topo


class TestEpochDuration:
    def test_slowest_link(self):
        tau = epoch_duration(hetero_topo(), 4.0, EpochMode.SLOWEST_LINK)
        assert tau == pytest.approx(4.0)  # 4 B / 1 B/s

    def test_fastest_link(self):
        tau = epoch_duration(hetero_topo(), 4.0, EpochMode.FASTEST_LINK)
        assert tau == pytest.approx(1.0)  # 4 B / 4 B/s

    def test_multiplier(self):
        tau = epoch_duration(hetero_topo(), 4.0, EpochMode.FASTEST_LINK,
                             multiplier=2.0)
        assert tau == pytest.approx(2.0)

    def test_alpha_stretch_guard(self):
        # alpha = 300 s vs tau = 1 s -> ratio > 200 -> stretch by 5
        topo = Topology("a", num_nodes=2)
        topo.add_bidirectional(0, 1, 1.0, alpha=300.0)
        tau = epoch_duration(topo, 1.0, EpochMode.FASTEST_LINK)
        assert tau == pytest.approx(5.0)

    def test_rejects_bad_chunk(self):
        with pytest.raises(ModelError):
            epoch_duration(hetero_topo(), 0.0)


class TestEpochPlan:
    def test_fastest_mode_occupancy(self):
        cfg = TecclConfig(chunk_bytes=4.0, epoch_mode=EpochMode.FASTEST_LINK)
        plan = build_epoch_plan(hetero_topo(), cfg, num_epochs=8)
        assert plan.occupancy[(0, 1)] == 1
        assert plan.occupancy[(1, 2)] == 4  # slow link: 4 epochs per chunk
        assert plan.cap_chunks[(1, 2)] == pytest.approx(0.25)

    def test_slowest_mode_all_unit(self):
        cfg = TecclConfig(chunk_bytes=4.0, epoch_mode=EpochMode.SLOWEST_LINK)
        plan = build_epoch_plan(hetero_topo(), cfg, num_epochs=8)
        assert all(k == 1 for k in plan.occupancy.values())
        assert plan.cap_chunks[(0, 1)] == pytest.approx(4.0)

    def test_delay_epochs(self):
        topo = Topology("d", num_nodes=2)
        topo.add_bidirectional(0, 1, 1.0, alpha=2.5)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=4)
        assert plan.delay[(0, 1)] == 3  # ceil(2.5 / 1.0)
        assert plan.arrival_offset(0, 1) == 3

    def test_arrival_offset_combines(self):
        cfg = TecclConfig(chunk_bytes=4.0, epoch_mode=EpochMode.FASTEST_LINK)
        topo = hetero_topo()
        topo.links[(1, 2)] = topo.link(1, 2).with_alpha(2.0)
        plan = build_epoch_plan(topo, cfg, num_epochs=8)
        # kappa - 1 = 3 plus ceil(2/1) = 2
        assert plan.arrival_offset(1, 2) == 5

    def test_horizon_and_resize(self):
        plan = plan_with_tau(line(3), 1.0, tau=0.5, num_epochs=4)
        assert plan.horizon == pytest.approx(2.0)
        bigger = plan.with_num_epochs(10)
        assert bigger.num_epochs == 10
        assert bigger.tau == plan.tau

    def test_plan_with_tau_validation(self):
        with pytest.raises(ModelError):
            plan_with_tau(line(3), 1.0, tau=0.0, num_epochs=4)
        with pytest.raises(ModelError):
            plan_with_tau(line(3), 1.0, tau=1.0, num_epochs=0)


class TestReachability:
    def test_earliest_arrival_line(self):
        plan = plan_with_tau(line(4), 1.0, tau=1.0, num_epochs=8)
        dist = earliest_arrival_epochs(line(4), plan)
        assert dist[0][0] == 0
        assert dist[0][3] == 3

    def test_earliest_arrival_with_delay(self):
        topo = Topology("d", num_nodes=3)
        topo.add_bidirectional(0, 1, 1.0, alpha=1.5)
        topo.add_bidirectional(1, 2, 1.0)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=8)
        dist = earliest_arrival_epochs(topo, plan)
        assert dist[0][1] == 3  # Delta = 2, +1
        assert dist[0][2] == 4


#: every first-rung call the perf ledger makes, dumped before the
#: reachability pass became one array pass (see its ``_provenance``)
LEDGER_RUNGS = json.loads(
    (Path(__file__).parent / "golden" / "ledger_first_rungs.json")
    .read_text())


def _ledger_case(case):
    """``(topology, demand, probe plan)`` of one golden ledger case."""
    doc = LEDGER_RUNGS["plans"][case["plan"]]
    topo = Topology.from_dict(LEDGER_RUNGS["topologies"][doc["topology"]])
    flat = LEDGER_RUNGS["demands"][case["demand"]]
    demand = Demand.from_triples(zip(flat[0::3], flat[1::3], flat[2::3]))
    return topo, demand, plan_with_tau(topo, doc["chunk_bytes"], doc["tau"],
                                       1)


def heap_dijkstra(topo, plan, src):
    """``(dist, prev)`` from ``src`` by a binary-heap Dijkstra that settles
    nodes in (distance, id) order; ``prev`` keeps the predecessor that first
    reached each node at its final distance (the scalar pass
    :func:`reachability` replaced)."""
    out_adj, _ = topo.adjacency()
    dist, prev, heap = {src: 0}, {}, [(0, src)]
    while heap:
        cost, node = heapq.heappop(heap)
        if cost > dist[node]:
            continue
        for link in out_adj[node]:
            new = cost + plan.arrival_offset(link.src, link.dst) + 1
            if new < dist.get(link.dst, UNREACHABLE):
                dist[link.dst], prev[link.dst] = new, node
                heapq.heappush(heap, (new, link.dst))
    return dist, prev


class TestLedgerFirstRungs:
    @pytest.mark.parametrize("index", range(len(LEDGER_RUNGS["cases"])),
                             ids=[case["label"] for case in
                                  LEDGER_RUNGS["cases"]])
    def test_rung_and_earliest_arrivals_are_the_parents(self, index):
        case = LEDGER_RUNGS["cases"][index]
        topo, demand, plan = _ledger_case(case)
        assert path_based_epoch_bound(topo, demand, plan,
                                      copy=case["copy"]) == case["rung"]
        dist = earliest_arrival_epochs(topo, plan)
        table = LEDGER_RUNGS["plans"][case["plan"]]["earliest"]
        assert (dist == UNREACHABLE).tolist() == [
            [epoch < 0 for epoch in row] for row in table]
        assert [[epoch if epoch >= 0 else -1 for epoch in row]
                for row in dist.tolist()] == [
            [epoch if epoch >= 0 else -1 for epoch in row] for row in table]

    def test_tree_parents_are_the_heap_dijkstras(self):
        plans = {case["plan"]: case for case in LEDGER_RUNGS["cases"]}
        instances = [_ledger_case(case) for case in plans.values()]
        instances += [(topo, demand, build_epoch_plan(topo, config, 1))
                      for topo, demand, config in map(random_instance,
                                                      range(24))]
        for topo, _demand, plan in instances:
            reach = reachability(topo, plan)
            for src in topo.nodes:
                dist, prev = heap_dijkstra(topo, plan, src)
                assert reach.dist[src].tolist() == [
                    dist.get(v, UNREACHABLE) for v in topo.nodes]
                assert reach.prev[src].tolist() == [
                    prev.get(v, -1) for v in topo.nodes]

    def test_one_pass_per_fabric_and_grid(self):
        topo = ring(8, capacity=1.0)
        probe = build_epoch_plan(topo, UNIT, num_epochs=1)
        reach = reachability(topo, probe)
        assert reachability(topo, probe.with_num_epochs(30)) is reach
        assert reachability(topo.copy(), build_epoch_plan(
            topo, UNIT, num_epochs=12)) is reach
        assert not reach.dist.flags.writeable
        # an edited fabric is another key
        assert reach.dist[0, 4] == 4
        topo.add_link(0, 4, 1.0)
        assert reachability(topo, build_epoch_plan(
            topo, UNIT, num_epochs=1)).dist[0, 4] == 1


class TestHorizonBounds:
    def test_path_bound_dominates_distance(self):
        topo = ring(6, capacity=1.0)
        demand = allgather(topo.gpus, 1)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=1)
        bound = path_based_epoch_bound(topo, demand, plan)
        assert bound >= 3  # farthest node on a 6-ring

    def test_bound_grows_with_demand(self):
        topo = ring(4, capacity=1.0)
        plan = plan_with_tau(topo, 1.0, tau=1.0, num_epochs=1)
        small = path_based_epoch_bound(topo, alltoall(topo.gpus, 1), plan)
        large = path_based_epoch_bound(topo, alltoall(topo.gpus, 4), plan)
        assert large > small


def _torus4() -> Topology:
    return torus2d(4, 4, capacity=1.0, alpha=0.0)


def _a2a(topo, chunks=1):
    return alltoall(topo.gpus, chunks)


def _from_root(collective):
    return lambda topo: collective(topo.gpus[0], topo.gpus[1:], 1)


UNIT = TecclConfig(chunk_bytes=1.0)

#: name -> (fabric, demand of the fabric, config, first rung)
FABRICS = {
    "torus4x4_a2a": (_torus4, _a2a, UNIT, 12),
    "hypercube4_a2a": (lambda: hypercube(4, capacity=1.0, alpha=0.0),
                       _a2a, UNIT, 12),
    "torus3x3_a2a": (lambda: torus2d(3, 3, capacity=1.0, alpha=0.0),
                     _a2a, UNIT, 5),
    "ring16_a2a": (lambda: ring(16, capacity=1.0), _a2a, UNIT, 40),
    "ring12_a2a": (lambda: ring(12, capacity=1.0), _a2a, UNIT, 24),
    "ring8_a2a_2chunk": (lambda: ring(8, capacity=1.0),
                         lambda topo: _a2a(topo, 2),
                         TecclConfig(chunk_bytes=0.5), 20),
    # one half-speed link: the even split is no longer uniform (10 needed)
    "torus4x4_degraded_a2a": (
        lambda: with_capacity_overrides(_torus4(), {(0, 1): 0.5}),
        _a2a, UNIT, 15),
    "ring16_broadcast": (lambda: ring(16, capacity=1.0),
                         _from_root(broadcast), UNIT, 9),
    "ring8_allgather": (lambda: ring(8, capacity=1.0),
                        lambda topo: allgather(topo.gpus, 1), UNIT, 8),
    # the fast NVLinks *are* the shortest-path tree: 9, where the even
    # split over every predecessor alone would give 12
    "dgx1_scatter": (dgx1, _from_root(scatter),
                     TecclConfig(chunk_bytes=25e3), 9),
}


def fabric(name):
    """``(topology, demand, config, first rung)`` of one FABRICS row."""
    make_topology, make_demand, config, rung = FABRICS[name]
    topo = make_topology()
    return topo, make_demand(topo), config, rung


def _solved_on_first_rung(topo, demand, config) -> int:
    """Synthesize at the auto horizon; returns the K it was answered at
    after asserting one attempt and a conformant replay."""
    result = synthesize(topo, demand, config)
    assert result.outcome.result.stats["horizon_attempts"] == 1
    check_result(result).raise_on_violation()
    return result.plan.num_epochs


class TestFirstRung:
    """The contract of :func:`path_based_epoch_bound` as the first rung of
    the horizon ladder: near the answer where there is path diversity or
    multicast, never looser than the one-path, per-destination count it
    replaced, and repaired by the ladder when it undershoots."""

    @pytest.mark.parametrize("name", sorted(FABRICS))
    def test_named_fabrics(self, name):
        topo, demand, config, rung = fabric(name)
        bound = horizon_bound(topo, demand, config)
        assert bound == rung <= PARENT["fabrics"][name]
        assert _solved_on_first_rung(topo, demand, config) == bound

    @pytest.mark.parametrize("copy", [False, None])
    @pytest.mark.parametrize("seed", range(24))
    def test_never_looser_than_the_parent(self, seed, copy):
        topo, demand, config = random_instance(seed)
        assert horizon_bound(topo, demand, config, copy=copy) \
            <= PARENT["sweep"][str(seed)]

    def test_copy_counts_a_multicast_chunk_once_per_link(self):
        """``copy=False`` keeps one unit of load per destination (the LP
        and the greedy baselines never duplicate), ``None`` infers it from
        the demand."""
        topo, demand, config, rung = fabric("ring16_broadcast")
        assert horizon_bound(topo, demand, config, copy=True) == rung
        assert horizon_bound(topo, demand, config, copy=False) \
            == PARENT["fabrics"]["ring16_broadcast"] == 16
        for name in FABRICS:
            topo, demand, config, _ = fabric(name)
            assert horizon_bound(topo, demand, config) == horizon_bound(
                topo, demand, config, copy=demand.benefits_from_copy())

    def test_an_undershoot_is_repaired_by_the_ladder(self):
        """At a third of the capacity the bound knows about, ring8 ALLTOALL
        needs about three times its first rung — and is still answered."""
        topo = ring(8, capacity=1.0)
        demand = alltoall(topo.gpus, 1)
        config = replace(UNIT, capacity_fn=lambda i, j, k: 1.0 / 3.0)
        result = synthesize(topo, demand, config)
        assert result.outcome.result.stats["horizon_attempts"] in (2, 3)
        assert result.plan.num_epochs > horizon_bound(topo, demand, config)
        check_result(result).raise_on_violation()

    @pytest.mark.parametrize(
        "n, link, factor, chunks, rung, copy_rung, finish", [
            # fleet-replan's live view: ring12 with one link at 0.75 — the
            # LP carries 0.75 chunks per epoch where the window counts 0.5
            # (the first rung was 36 / 66 before)
            (12, (9, 8), 0.75, 1, 27, 36, 22),
            (12, (9, 8), 0.75, 2, 48, 66, 43),
            # one fast link sets τ, so every other link runs at 2/3 (was 17)
            (6, (0, 1), 1.5, 1, 15, 18, None),
        ], ids=["ring12_fleet_coarse", "ring12_fleet_fine", "ring6_fast_link"])
    def test_no_copy_queues_at_the_lp_capacity(self, n, link, factor, chunks,
                                               rung, copy_rung, finish):
        topo = with_capacity_overrides(ring(n, capacity=1.0), {link: factor})
        demand = alltoall(topo.gpus, chunks)
        config = TecclConfig(chunk_bytes=1.0 / chunks)
        assert horizon_bound(topo, demand, config) == rung
        assert horizon_bound(topo, demand, config, copy=True) == copy_rung
        result = synthesize(topo, demand, config)
        assert result.outcome.result.stats["horizon_attempts"] == 1
        assert result.plan.num_epochs == rung
        check_result(result).raise_on_violation()
        if finish is not None:
            # the fleet-replan ledger's golden finish epochs
            assert result.schedule.finish_epoch == finish

    def test_torus6x6(self):
        topo = torus2d(6, 6, capacity=1.0, alpha=0.0)
        assert _solved_on_first_rung(
            topo, alltoall(topo.gpus, 1), UNIT) <= 36

    @pytest.mark.slow
    @pytest.mark.parametrize("make_topology, ceiling", [
        (lambda: hypercube(5, capacity=1.0, alpha=0.0), 24),
        (lambda: torus2d(8, 8, capacity=1.0, alpha=0.0), 76),
    ], ids=["hypercube5", "torus8x8"])
    def test_big_fabrics(self, make_topology, ceiling):
        topo = make_topology()
        assert _solved_on_first_rung(
            topo, alltoall(topo.gpus, 1), UNIT) <= ceiling


#: link speeds; with τ set by the fastest link, most of them leave a window
#: ⌊cap·κ⌋/κ below the LP's capacity row
FRACTIONAL_SPEEDS = (0.5, 0.6, 0.75, 0.9, 1.0, 1.25, 1.5)


def fractional_instance(seed: int):
    """A seeded ``(topology, demand, config)`` with fractional link rates.

    ``random_instance`` draws speeds from {1, 1, 2}, so every window there
    is integral; these draw from :data:`FRACTIONAL_SPEEDS` on ring / line /
    torus / mesh, with ALLTOALL, scatter or gather at 1–2 chunks.
    """
    rng = random.Random(seed)
    kind = rng.choice(["ring", "line", "torus", "mesh"])
    if kind == "torus":
        topo = torus2d(3, 3, capacity=1.0, alpha=0.0)
    elif kind == "mesh":
        topo = full_mesh(rng.randint(3, 4), capacity=1.0)
    else:
        topo = (ring if kind == "ring" else line)(rng.randint(3, 6),
                                                  capacity=1.0)
    for a, b in list(topo.links):
        topo.add_link(a, b, capacity=rng.choice(FRACTIONAL_SPEEDS))
    gpus = topo.gpus
    chunks = rng.randint(1, 2)
    root = rng.choice(gpus)
    others = [g for g in gpus if g != root]
    demand = rng.choice([lambda: alltoall(gpus, chunks),
                         lambda: scatter(root, others, chunks),
                         lambda: gather(root, others, chunks)])()
    return topo, demand, TecclConfig(chunk_bytes=1.0)


def window_rung(topo, demand, config) -> int:
    """The no-copy rung as it was before it read the LP's capacity row:
    every link queued at the MILP's window, ``max(1, ⌊cap·κ⌋)`` chunks per
    κ epochs."""
    probe = build_epoch_plan(topo, config, num_epochs=1)
    window = {key: max(1, math.floor(cap * probe.occupancy[key] + 1e-9))
              / probe.occupancy[key]
              for key, cap in probe.cap_chunks.items()}
    return path_based_epoch_bound(
        topo, demand, replace(probe, cap_chunks=window), copy=False)


class TestFractionalWindowSweep:
    """Where ``cap·κ`` is not an integer the no-copy rung reads the LP's
    capacity row, so it tightens; the LP must still be answered on its
    first rung and the baselines sized by it must still finish."""

    def test_the_sweep_reaches_fractional_windows(self):
        tightened = 0
        for seed in range(24):
            instance = fractional_instance(seed)
            tightened += horizon_bound(*instance) < window_rung(*instance)
        assert tightened >= 6  # 10 of these 24 seeds, 85 of 200

    @pytest.mark.parametrize("seed", [
        *range(24),
        *(pytest.param(seed, marks=pytest.mark.slow)
          for seed in range(24, 200))])
    def test_first_rung_answers(self, seed):
        topo, demand, config = fractional_instance(seed)
        assert horizon_bound(topo, demand, config) <= window_rung(
            topo, demand, config)
        outcome = solve_lp(topo, demand, config)
        assert outcome.result.stats["horizon_attempts"] == 1
        assert check_flow(outcome.schedule, topo, demand, outcome.plan,
                          config=config).ok
        # the greedy baselines book integral windows inside an envelope of
        # a multiple of the same rung
        for producer in ("shortest_path", "trees", "taccl"):
            for record in run_producer(producer, topo, demand, config, seed):
                assert record.ok, (producer, record.error,
                                   record.report and record.report.violations)


class TestUnicastMilpRung:
    """A unicast ``solve_milp`` is sized by the LP's rate although its own
    capacity row is the window: optimistic for it, so the cases measured
    are pinned at attempt 1."""

    @pytest.mark.parametrize("n, factor, chunks, rung", [
        (5, 0.75, 1, 7),
        (6, 0.75, 1, 9),
        (4, 0.6, 2, 8),
        pytest.param(6, 1.5, 1, 15, marks=pytest.mark.slow),
    ], ids=["ring5@0.75", "ring6@0.75", "ring4_2chunk@0.6", "ring6@1.5"])
    def test_answered_on_the_first_rung(self, n, factor, chunks, rung):
        topo = with_capacity_overrides(ring(n, capacity=1.0),
                                       {(0, 1): factor})
        demand = alltoall(topo.gpus, chunks)
        config = TecclConfig(chunk_bytes=1.0 / chunks)
        assert horizon_bound(topo, demand, config) == rung
        outcome = solve_milp(topo, demand, config)
        assert outcome.result.stats["horizon_attempts"] == 1
        assert outcome.plan.num_epochs == rung
        assert check_schedule(outcome.schedule, topo, demand, outcome.plan,
                              config=config).ok


class TestHorizonLadder:
    """The auto-horizon policy of solve_lp / solve_milp / solve_lp_pop,
    pinned in the one place it is stated (path bound patched to 5)."""

    @pytest.mark.parametrize("explicit, kwargs, rungs", [
        # an explicit K is one attempt at that K, stretched or not
        (7, {}, [(1, 7)]),
        (7, {"stretch": lambda bound: bound + 2}, [(1, 7)]),
        # auto: exactly three rungs from the bound, doubling — whichever
        # formulation (copy or not) the bound was asked for
        (None, {}, [(1, 5), (2, 10), (3, 20)]),
        (None, {"copy": False}, [(1, 5), (2, 10), (3, 20)]),
        (None, {"copy": True}, [(1, 5), (2, 10), (3, 20)]),
        # POP: the stretched bound is the first rung, then doublings
        (None, {"stretch": lambda bound: bound}, [(1, 5), (2, 10), (3, 20)]),
        (None, {"stretch": lambda bound: 2 * bound},
         [(1, 10), (2, 20), (3, 40)]),
        (None, {"stretch": lambda bound: bound + 2},
         [(1, 7), (2, 14), (3, 28)]),
    ])
    def test_rungs(self, monkeypatch, explicit, kwargs, rungs):
        monkeypatch.setattr(epochs_module, "path_based_epoch_bound",
                            lambda topology, demand, plan, copy=None: 5)
        topo = ring(4, capacity=1.0)
        config = TecclConfig(chunk_bytes=1.0, num_epochs=explicit)
        ladder = horizon_ladder(topo, alltoall(topo.gpus, 1), config,
                                **kwargs)
        assert list(ladder) == rungs


class TestAlphaStretchIteration:
    """The α > 200·τ guard must iterate (PR 4 satellite bugfix)."""

    def _alpha_topo(self, alpha: float) -> Topology:
        topo = Topology("a", num_nodes=2)
        topo.add_bidirectional(0, 1, 1.0, alpha=alpha)
        return topo

    def test_single_stretch_stays_bit_identical(self):
        # 200 < α/τ <= 1000: exactly one 5x stretch, as before the fix
        tau = epoch_duration(self._alpha_topo(300.0), 1.0,
                             EpochMode.FASTEST_LINK)
        assert tau == 1.0 * 5.0  # bit-identical to one multiplication

    def test_extreme_alpha_stretches_until_guard_holds(self):
        # α = 1e6·τ: one stretch (the old behaviour) leaves α = 200_000·τ,
        # still grid-bloating; the guard must iterate until α <= 200·τ
        tau = epoch_duration(self._alpha_topo(1e6), 1.0,
                             EpochMode.FASTEST_LINK)
        assert 1e6 <= 200.0 * tau
        assert tau == 5.0 ** 6  # the minimal power of 5 that satisfies it

    def test_no_stretch_below_ratio(self):
        tau = epoch_duration(self._alpha_topo(199.0), 1.0,
                             EpochMode.FASTEST_LINK)
        assert tau == pytest.approx(1.0)


class TestEpochPlanDocumentValidation:
    """EpochPlan.from_dict must reject malformed documents (PR 4)."""

    def _plan(self):
        cfg = TecclConfig(chunk_bytes=4.0)
        return build_epoch_plan(hetero_topo(), cfg, num_epochs=6)

    def test_roundtrip(self):
        plan = self._plan()
        back = plan.__class__.from_dict(plan.to_dict())
        assert back.tau == plan.tau
        assert back.num_epochs == plan.num_epochs
        assert back.cap_chunks == plan.cap_chunks
        assert back.occupancy == plan.occupancy
        assert back.delay == plan.delay

    def test_duplicate_links_rejected(self):
        doc = self._plan().to_dict()
        doc["links"].append(list(doc["links"][0]))
        with pytest.raises(ModelError, match="duplicate"):
            self._plan().__class__.from_dict(doc)

    def test_nan_capacity_rejected(self):
        doc = self._plan().to_dict()
        doc["links"][0][2] = float("nan")
        with pytest.raises(ModelError, match="capacity"):
            self._plan().__class__.from_dict(doc)

    def test_negative_capacity_rejected(self):
        doc = self._plan().to_dict()
        doc["links"][0][2] = -1.0
        with pytest.raises(ModelError, match="capacity"):
            self._plan().__class__.from_dict(doc)

    def test_zero_occupancy_rejected(self):
        doc = self._plan().to_dict()
        doc["links"][0][3] = 0
        with pytest.raises(ModelError, match="occupancy"):
            self._plan().__class__.from_dict(doc)

    def test_negative_delay_rejected(self):
        doc = self._plan().to_dict()
        doc["links"][0][4] = -1
        with pytest.raises(ModelError, match="delay"):
            self._plan().__class__.from_dict(doc)

    def test_bad_tau_rejected(self):
        doc = self._plan().to_dict()
        doc["tau"] = 0.0
        with pytest.raises(ModelError, match="tau"):
            self._plan().__class__.from_dict(doc)
