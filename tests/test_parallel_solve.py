"""Tests for the parallel decomposition paths (PR 7).

Covers the shared sub-solve executor (:mod:`repro.core.subsolve`), the
POP thread fan-out, and the hierarchical fingerprint dedup —
always against the invariant that parallel/deduped runs produce merged
schedules *identical* to the sequential paths and conformance-clean.
"""

import threading
import time

import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.hierarchical import chassis_groups, hierarchical_allgather
from repro.core.pop import solve_lp_pop
from repro.core.subsolve import SubSolveCache, run_subsolves
from repro.simulate import check_flow, check_result
from repro.solver import SolverOptions

pytestmark = pytest.mark.parallel


# ----------------------------------------------------------------------
# the shared executor
# ----------------------------------------------------------------------
class TestRunSubsolves:
    def test_results_in_task_order(self):
        tasks = [lambda i=i: (time.sleep(0.002 * (8 - i)), i)[1]
                 for i in range(8)]
        assert run_subsolves(tasks, jobs=8) == list(range(8))

    def test_jobs_one_is_sequential(self):
        thread_ids = []

        def task():
            thread_ids.append(threading.get_ident())
            return len(thread_ids)

        assert run_subsolves([task] * 4, jobs=1) == [1, 2, 3, 4]
        assert set(thread_ids) == {threading.get_ident()}

    def test_single_task_runs_inline(self):
        ident = []
        run_subsolves([lambda: ident.append(threading.get_ident())],
                      jobs=8)
        assert ident == [threading.get_ident()]

    def test_lowest_index_error_wins(self):
        def ok():
            return "fine"

        def value_error():
            raise ValueError("index 1")

        def key_error():
            raise KeyError("index 3")

        with pytest.raises(ValueError, match="index 1"):
            run_subsolves([ok, value_error, ok, key_error], jobs=4)

    def test_all_tasks_run_even_after_a_failure(self):
        ran = []

        def task(i):
            ran.append(i)
            if i == 0:
                raise RuntimeError("first dies")
            return i

        with pytest.raises(RuntimeError):
            run_subsolves([lambda i=i: task(i) for i in range(6)], jobs=2)
        assert sorted(ran) == list(range(6))

    def test_thread_hammer(self):
        """Many tasks, narrow pool: every task runs exactly once, results
        stay ordered, and work genuinely spreads across threads."""
        seen = []
        lock = threading.Lock()

        def task(i):
            with lock:
                seen.append((i, threading.get_ident()))
            time.sleep(0.001)
            return i * i

        results = run_subsolves(
            [lambda i=i: task(i) for i in range(64)], jobs=8)
        assert results == [i * i for i in range(64)]
        assert len(seen) == 64
        assert len({t for _, t in seen}) > 1


class TestSubSolveCache:
    def test_second_request_hits(self):
        cache = SubSolveCache()
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            return object()

        first, hit1 = cache.solve("k", fn)
        second, hit2 = cache.solve("k", fn)
        assert (hit1, hit2) == (False, True)
        assert first is second and calls["n"] == 1
        assert (cache.solves, cache.hits) == (1, 2 - 1)

    def test_distinct_keys_solve_separately(self):
        cache = SubSolveCache()
        assert cache.solve("a", lambda: 1)[0] == 1
        assert cache.solve("b", lambda: 2)[0] == 2
        assert cache.solves == 2 and cache.hits == 0

    def test_concurrent_identical_requests_coalesce(self):
        cache = SubSolveCache()
        barrier = threading.Barrier(16)
        calls = {"n": 0}
        results = []
        lock = threading.Lock()

        def fn():
            calls["n"] += 1
            time.sleep(0.01)
            return object()

        def worker():
            barrier.wait()
            value, _ = cache.solve("k", fn)
            with lock:
                results.append(value)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert calls["n"] == 1
        assert len(results) == 16 and len({id(v) for v in results}) == 1
        assert cache.solves == 1 and cache.hits == 15

    def test_owner_failure_propagates_to_everyone(self):
        cache = SubSolveCache()

        def boom():
            raise RuntimeError("owner died")

        with pytest.raises(RuntimeError, match="owner died"):
            cache.solve("k", boom)
        # joiners observe the same cached failure, never a re-solve
        with pytest.raises(RuntimeError, match="owner died"):
            cache.solve("k", lambda: "never runs")


# ----------------------------------------------------------------------
# POP fan-out: parallel == sequential, always conformance-clean
# ----------------------------------------------------------------------
def _lp_config():
    return TecclConfig(chunk_bytes=1.0,
                       solver=SolverOptions(time_limit=60))


def _assert_pop_identical(seq, par, topo, demand, config):
    assert par.schedule.flows == seq.schedule.flows
    assert par.schedule.reads == seq.schedule.reads
    assert par.finish_time == pytest.approx(seq.finish_time)
    assert par.plan.num_epochs == seq.plan.num_epochs
    for a, b in zip(seq.sub_outcomes, par.sub_outcomes):
        assert a.result.objective == pytest.approx(b.result.objective)
    report = check_flow(par.schedule, topo, demand, par.plan, config=config)
    assert report.ok, report.violations[:3]


class TestPopParallel:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_incremental_thread_fanout_matches_sequential(self, seed):
        topo = topology.ring(4, capacity=1.0)
        demand = collectives.alltoall(topo.gpus, 1)
        config = _lp_config()
        seq = solve_lp_pop(topo, demand, config, num_partitions=2,
                           seed=seed)
        par = solve_lp_pop(topo, demand, config, num_partitions=2,
                           seed=seed, jobs=4)
        _assert_pop_identical(seq, par, topo, demand, config)

    def test_cold_thread_fanout_matches_sequential(self):
        topo = topology.internal2(2)
        demand = collectives.alltoall(topo.gpus, 1)
        config = TecclConfig(chunk_bytes=1e6,
                             solver=SolverOptions(time_limit=60))
        seq = solve_lp_pop(topo, demand, config, num_partitions=2)
        par = solve_lp_pop(topo, demand, config, num_partitions=2,
                           jobs=None)
        _assert_pop_identical(seq, par, topo, demand, config)

    def test_partitions_take_the_quotient(self):
        """A POP partition goes through the symmetry quotient like any
        other LP solve, on the sequential and the thread fan-out alike."""
        topo = topology.ring(6, capacity=1.0)
        demand = collectives.alltoall(topo.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0, solver=SolverOptions(
            time_limit=60, symmetry="on"))
        seq = solve_lp_pop(topo, demand, config, num_partitions=1)
        par = solve_lp_pop(topo, demand, config, num_partitions=1,
                           jobs=2)
        for out in (seq, par):
            assert out.sub_outcomes[0].result.stats["symmetry_conformant"]
        _assert_pop_identical(seq, par, topo, demand, config)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("partitions", [2, 4])
    def test_seeded_differential_sweep(self, seed, partitions):
        """The full grid: every (seed, k) pair, threads vs sequential."""
        topo = topology.internal2(2)
        demand = collectives.alltoall(topo.gpus, 1)
        config = TecclConfig(chunk_bytes=1e6,
                             solver=SolverOptions(time_limit=60))
        seq = solve_lp_pop(topo, demand, config,
                           num_partitions=partitions, seed=seed)
        par = solve_lp_pop(topo, demand, config,
                           num_partitions=partitions, seed=seed,
                           jobs=None)
        _assert_pop_identical(seq, par, topo, demand, config)


# ----------------------------------------------------------------------
# hierarchical: dedup + concurrency vs the sequential path
# ----------------------------------------------------------------------
def _hier_config():
    return TecclConfig(chunk_bytes=1e6,
                       solver=SolverOptions(mip_gap=0.2, time_limit=30))


def _assert_hier_identical(seq, fast):
    assert fast.finish_time == pytest.approx(seq.finish_time)
    for a, b in zip(seq.phases(), fast.phases()):
        assert a.label == b.label
        assert b.finish_time == pytest.approx(a.finish_time)
        assert b.synthesis.schedule.to_dict() == \
            a.synthesis.schedule.to_dict()


def _assert_hier_conformant(outcome):
    for phase in outcome.phases():
        if phase.synthesis.hyper is None:
            report = check_result(phase.synthesis,
                                  topology=phase.fabric.topology,
                                  demand=phase.demand)
        else:
            report = check_result(phase.synthesis)
        assert report.ok, (phase.label, report.violations[:3])


class TestHierarchicalDedupParallel:
    def test_dedup_matches_sequential_on_symmetric_chassis(self):
        topo = topology.internal2(2)
        plans = chassis_groups(topo, 2)
        seq = hierarchical_allgather(topo, _hier_config(), chassis=plans,
                                     dedup=False)
        ded = hierarchical_allgather(topo, _hier_config(), chassis=plans,
                                     dedup=True)
        _assert_hier_identical(seq, ded)
        _assert_hier_conformant(ded)
        # 2 symmetric chassis: 5 instances collapse to 3 distinct solves
        assert seq.sub_solves == 5 and seq.dedup_hits == 0
        assert ded.sub_solves == 3 and ded.dedup_hits == 2
        assert [p.deduped for p in ded.phases()].count(True) == 2

    def test_parallel_dedup_matches_sequential(self):
        topo = topology.internal2(2)
        plans = chassis_groups(topo, 2)
        seq = hierarchical_allgather(topo, _hier_config(), chassis=plans,
                                     dedup=False)
        fast = hierarchical_allgather(topo, _hier_config(), chassis=plans,
                                      dedup=True, jobs=4)
        _assert_hier_identical(seq, fast)
        _assert_hier_conformant(fast)
        assert fast.sub_solves == 3

    def test_parallel_without_dedup_matches_sequential(self):
        topo = topology.internal2(2)
        plans = chassis_groups(topo, 2)
        seq = hierarchical_allgather(topo, _hier_config(), chassis=plans,
                                     dedup=False)
        par = hierarchical_allgather(topo, _hier_config(), chassis=plans,
                                     dedup=False, jobs=None)
        _assert_hier_identical(seq, par)
        assert par.sub_solves == 5

    def test_capacity_fn_disables_dedup(self):
        topo = topology.internal2(2)
        plans = chassis_groups(topo, 2)
        config = TecclConfig(
            chunk_bytes=1e6,
            solver=SolverOptions(mip_gap=0.2, time_limit=30),
            capacity_fn=lambda i, j, k: 25e9)
        out = hierarchical_allgather(topo, config, chassis=plans,
                                     dedup=True)
        # a callable has no canonical form: every instance solves itself
        assert out.sub_solves == 5 and out.dedup_hits == 0

    @pytest.mark.slow
    def test_four_symmetric_chassis_collapse_three_to_one(self):
        """The acceptance shape: G=4 symmetric chassis, 9 instances,
        3 distinct solves — ≥2x fewer than sequential."""
        topo = topology.internal2(4)
        plans = chassis_groups(topo, 2)
        seq = hierarchical_allgather(topo, _hier_config(), chassis=plans,
                                     dedup=False)
        ded = hierarchical_allgather(topo, _hier_config(), chassis=plans,
                                     dedup=True, jobs=None)
        _assert_hier_identical(seq, ded)
        _assert_hier_conformant(ded)
        assert seq.sub_solves == 9
        assert ded.sub_solves == 3
        assert ded.dedup_hits == 6
