"""The Planner: hit/miss accounting, coalescing, batching, timeouts."""

import threading
import time

import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.solve import Method
from repro.errors import ServiceError
from repro.service import Planner, PlanRequest, SolvePool, solve_request
from repro.solver import SolverOptions


def _request(chunks: int = 1, *, chunk_bytes: float = 1.0,
             num_epochs: int | None = 8, tag: str = "") -> PlanRequest:
    topo = topology.ring(4, capacity=1.0, alpha=0.0)
    return PlanRequest(
        topology=topo,
        demand=collectives.allgather(topo.gpus, chunks),
        config=TecclConfig(chunk_bytes=chunk_bytes, num_epochs=num_epochs),
        tag=tag)


class TestCaching:
    def test_miss_then_hit(self):
        with Planner(executor="inline") as planner:
            first = planner.plan(_request())
            second = planner.plan(_request())
        assert not first.cache_hit and second.cache_hit
        stats = planner.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["solves"] == 1

    def test_equivalent_objects_hit(self):
        """A request rebuilt from scratch (different objects, permuted
        edge insertion) still hits the cache."""
        with Planner(executor="inline") as planner:
            planner.plan(_request())
            topo = topology.Topology("rebuilt", num_nodes=4)
            for a, b in [(2, 3), (0, 1), (1, 2), (3, 0)]:
                topo.add_bidirectional(a, b, 1.0)
            rebuilt = PlanRequest(
                topology=topo,
                demand=collectives.allgather(list(range(4)), 1),
                config=TecclConfig(chunk_bytes=1, num_epochs=8))
            response = planner.plan(rebuilt)
        assert response.cache_hit

    def test_cached_result_equivalent(self):
        with Planner(executor="inline") as planner:
            cold = planner.plan(_request())
            warmed = planner.plan(_request())
        assert warmed.result.finish_time == pytest.approx(
            cold.result.finish_time)
        assert warmed.result.method == cold.result.method
        assert len(warmed.result.schedule.sends) == \
            len(cold.result.schedule.sends)
        # the cached result still supports downstream consumers
        assert warmed.result.topology_used is not None
        assert warmed.result.schedule.finish_time(
            warmed.result.topology_used) > 0

    def test_disk_cache_spans_planners(self, tmp_path):
        with Planner(executor="inline", cache_dir=tmp_path) as planner:
            planner.plan(_request())
        with Planner(executor="inline", cache_dir=tmp_path) as planner:
            response = planner.plan(_request())
            assert response.cache_hit
            assert planner.stats()["solves"] == 0


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_solve(self):
        n = 6
        everyone_arrived = threading.Event()

        def gated_solve(request_dict: dict) -> dict:
            # Hold the solve open until every client has reached the pool:
            # one that arrives after it finished is (correctly) served
            # from the cache instead of coalescing.
            assert everyone_arrived.wait(30)
            return solve_request(request_dict)

        pool = SolvePool(max_workers=4, executor="thread",
                         solve_fn=gated_solve)
        try:
            with Planner(pool=pool) as planner:
                responses: list = [None] * n

                def serve(i: int) -> None:
                    responses[i] = planner.plan(_request())

                threads = [threading.Thread(target=serve, args=(i,))
                           for i in range(n)]
                for t in threads:
                    t.start()
                deadline = time.monotonic() + 30
                while pool.stats.submitted + pool.stats.coalesced < n \
                        and time.monotonic() < deadline:
                    time.sleep(0.001)
                everyone_arrived.set()
                for t in threads:
                    t.join()
                stats = planner.stats()
        finally:
            everyone_arrived.set()
            pool.shutdown()
        assert stats["solves"] == 1            # exactly one synthesize()
        assert stats["coalesced"] == n - 1
        finishes = {r.result.finish_time for r in responses}
        assert len(finishes) == 1
        assert sum(1 for r in responses if r.coalesced) == n - 1

    def test_distinct_requests_solve_in_parallel(self):
        """With a 2-wide pool, two *distinct* slow solves overlap."""
        calls: list[str] = []

        def slow_solve(request_dict: dict) -> dict:
            calls.append(request_dict["tag"])
            time.sleep(0.2)
            return {"tag": request_dict["tag"]}

        pool = SolvePool(max_workers=2, executor="thread",
                         solve_fn=slow_solve)
        try:
            t0 = time.perf_counter()
            fut_a, co_a = pool.submit("a" * 64, {"tag": "a"})
            fut_b, co_b = pool.submit("b" * 64, {"tag": "b"})
            assert not co_a and not co_b
            assert fut_a.result(5)["tag"] == "a"
            assert fut_b.result(5)["tag"] == "b"
            elapsed = time.perf_counter() - t0
        finally:
            pool.shutdown()
        assert sorted(calls) == ["a", "b"]
        assert elapsed < 0.35  # serial would be >= 0.4

    def test_batch_with_duplicates_coalesces(self):
        with Planner(executor="thread", max_workers=2) as planner:
            responses = planner.plan_batch(
                [_request(tag="x"), _request(tag="y"), _request(tag="z")])
        stats = planner.stats()
        assert stats["solves"] == 1
        # the duplicates either coalesced onto the in-flight solve or (if it
        # finished between submissions) hit the cache — never a second solve
        assert stats["coalesced"] + stats["hits"] == 2
        assert [r.tag for r in responses] == ["x", "y", "z"]
        assert all(r.ok for r in responses)


class TestBatchAndWarm:
    def test_batch_mixes_hits_and_solves(self):
        with Planner(executor="thread", max_workers=2) as planner:
            planner.plan(_request())
            responses = planner.plan_batch(
                [_request(tag="hit"), _request(chunks=2, tag="cold")])
        served = {r.tag: r for r in responses}
        assert served["hit"].cache_hit
        assert not served["cold"].cache_hit and served["cold"].ok

    def test_batch_captures_errors(self):
        good = _request(tag="good")
        # horizon 1 on a 4-ring allgather is infeasible
        bad = _request(num_epochs=1, tag="bad")
        with Planner(executor="inline") as planner:
            responses = planner.plan_batch([good, bad])
        by_tag = {r.tag: r for r in responses}
        assert by_tag["good"].ok
        assert not by_tag["bad"].ok
        assert by_tag["bad"].error

    def test_plan_raises_on_infeasible(self):
        from repro.errors import ReproError

        with Planner(executor="inline") as planner:
            with pytest.raises(ReproError):
                planner.plan(_request(num_epochs=1))

    def test_warm_counts_fresh_solves(self):
        with Planner(executor="inline") as planner:
            assert planner.warm([_request(), _request(chunks=2)]) == 2
            assert planner.warm([_request(), _request(chunks=2)]) == 0


class TestTimeouts:
    def test_timeout_raises_service_error(self):
        def glacial(request_dict: dict) -> dict:
            time.sleep(5.0)
            return {}

        pool = SolvePool(max_workers=1, executor="thread", solve_fn=glacial)
        planner = Planner(pool=pool)
        try:
            with pytest.raises(ServiceError, match="did not finish"):
                planner.plan(_request(), timeout=0.05)
            assert planner.stats()["timeouts"] == 1
        finally:
            planner.close()

    def test_timed_out_solve_still_warms_cache(self):
        release = threading.Event()

        def gated(request_dict: dict) -> dict:
            release.wait(5.0)
            from repro.service.pool import solve_request
            return solve_request(request_dict)

        pool = SolvePool(max_workers=1, executor="thread", solve_fn=gated)
        planner = Planner(pool=pool)
        try:
            with pytest.raises(ServiceError):
                planner.plan(_request(), timeout=0.05)
            release.set()
            # Retrying either coalesces onto the still-running solve or hits
            # the cache it populated — but never starts a second solve.
            response = planner.plan(_request(), timeout=10)
            assert response.ok
            assert planner.stats()["solves"] == 1
        finally:
            release.set()
            planner.close()


class TestProcessPool:
    def test_process_executor_roundtrip(self):
        """Requests and results cross the process boundary intact."""
        with Planner(executor="process", max_workers=2) as planner:
            response = planner.plan(_request())
            again = planner.plan(_request())
        assert response.ok and response.result.schedule.num_sends > 0
        assert again.cache_hit
        assert planner.stats()["solves"] == 1

    def test_lp_result_crosses_process_boundary(self):
        topo = topology.ring(4, capacity=1.0, alpha=0.0)
        request = PlanRequest(
            topology=topo,
            demand=collectives.alltoall(topo.gpus, 1),
            config=TecclConfig(chunk_bytes=1.0),
            method=Method.LP)
        with Planner(executor="process", max_workers=1) as planner:
            response = planner.plan(request)
        assert response.ok
        assert response.result.method is Method.LP
        assert response.result.schedule.flows  # FlowSchedule round-trip


class TestConformanceCheck:
    def test_post_solve_replay_attaches_report(self):
        with Planner(executor="inline", check_conformance=True) as planner:
            response = planner.plan(_request())
        assert response.ok
        assert response.conformant is True
        assert response.conformance["ok"] is True
        assert response.conformance["violation_counts"] == {}
        assert response.conformance["finish_time"] == pytest.approx(
            response.result.finish_time)
        stats = planner.stats()
        assert stats["conformance_checks"] == 1
        assert stats["conformance_failures"] == 0

    def test_cache_hits_are_checked_too(self):
        with Planner(executor="inline", check_conformance=True) as planner:
            planner.plan(_request())
            hit = planner.plan(_request())
        assert hit.cache_hit and hit.conformant is True
        assert planner.stats()["conformance_checks"] == 2

    def test_corrupted_cache_entry_is_evicted_and_resolved(self):
        with Planner(executor="inline", check_conformance=True) as planner:
            first = planner.plan(_request())
            self._poison(planner, first.fingerprint)
            healed = planner.plan(_request())
            again = planner.plan(_request())
        # the poisoned entry was expelled and the request re-solved fresh
        assert healed.ok and healed.conformant is True
        assert not healed.cache_hit
        # ... and the replacement entry serves clean hits afterwards
        assert again.ok and again.cache_hit and again.conformant is True
        stats = planner.stats()
        assert stats["conformance_failures"] == 1
        assert stats["solves"] == 2

    @staticmethod
    def _poison(planner, fingerprint):
        """Overwrite a cached entry: every send collapses to epoch 0."""
        import copy

        payload = copy.deepcopy(planner.cache.get(fingerprint))
        for send in payload["schedule"]["sends"]:
            send[0] = 0
        planner.cache.put(fingerprint, payload)
        return payload

    def test_poisoned_put_over_a_parsed_entry_is_seen(self):
        # hits share one parsed result per entry; a put must drop it, or
        # the sabotaged payload would hide behind the stale parse
        with Planner(executor="inline", check_conformance=True) as planner:
            first = planner.plan(_request())
            assert planner.plan(_request()).cache_hit  # parsed, shared
            self._poison(planner, first.fingerprint)
            healed = planner.plan(_request())
            again = planner.plan(_request())
        assert healed.ok and not healed.cache_hit
        assert again.cache_hit and again.conformant is True
        assert planner.stats()["conformance_failures"] == 1

    def test_disabled_by_default(self):
        with Planner(executor="inline") as planner:
            response = planner.plan(_request())
        assert response.conformance is None
        assert response.conformant is None
        assert planner.stats()["conformance_checks"] == 0


class TestRequestDeterminism:
    """A served schedule is a function of its request: what the cache
    happens to hold — a near-fingerprint sibling, a restart — changes
    whether a request solves, never what it is answered with."""

    @staticmethod
    def _dgx1_allgather(capacity_factor: float = 1.0,
                        unit: float = 1.0) -> PlanRequest:
        topo = topology.dgx1()
        if capacity_factor != 1.0:
            # α stays: ⌈α/τ⌉ moves, so this is another model
            topo = topology.scale_capacity(topo, capacity_factor)
        if unit != 1.0:  # capacities ÷ unit, α × unit: the same model
            topo = topology.scale_capacity(topo, 1 / unit)
            for key, link in topo.links.items():
                topo.links[key] = link.with_alpha(link.alpha * unit)
        return PlanRequest(
            topology=topo, demand=collectives.allgather(topo.gpus, 1),
            config=TecclConfig(chunk_bytes=25e3))

    @staticmethod
    def _same_answer(a, b) -> None:
        assert a.fingerprint == b.fingerprint
        assert a.result.plan.num_epochs == b.result.plan.num_epochs
        assert a.result.schedule.to_dict() == b.result.schedule.to_dict()

    def test_cached_sibling_does_not_change_the_answer(self):
        with Planner(executor="inline") as planner:
            planner.plan(self._dgx1_allgather(0.5))  # half-capacity sibling
            after_sibling = planner.plan(self._dgx1_allgather())
        with Planner(executor="inline") as fresh_planner:
            fresh = fresh_planner.plan(self._dgx1_allgather())
        assert not after_sibling.cache_hit and not fresh.cache_hit
        self._same_answer(after_sibling, fresh)

    def test_half_capacity_twin_hits_and_answers_as_a_fresh_planner(self):
        # capacities halved and α doubled: the time unit doubles
        with Planner(executor="inline") as planner:
            planner.plan(self._dgx1_allgather())
            twin = planner.plan(self._dgx1_allgather(unit=2.0))
            assert twin.cache_hit and planner.stats()["solves"] == 1
        with Planner(executor="inline") as fresh_planner:
            fresh = fresh_planner.plan(self._dgx1_allgather(unit=2.0))
        assert not fresh.cache_hit
        self._same_answer(twin, fresh)
        assert twin.result.finish_time == fresh.result.finish_time

    def test_restarted_disk_tier_does_not_change_it(self, tmp_path):
        with Planner(executor="inline", cache_dir=tmp_path) as planner:
            planner.plan(self._dgx1_allgather(0.5))
        with Planner(executor="inline", cache_dir=tmp_path) as restarted:
            after_restart = restarted.plan(self._dgx1_allgather())
            assert restarted.stats()["solves"] == 1
        with Planner(executor="inline") as fresh_planner:
            fresh = fresh_planner.plan(self._dgx1_allgather())
        self._same_answer(after_restart, fresh)

    def test_parent_commit_response_still_parses(self):
        from repro.service import PlanResponse

        with Planner(executor="inline") as planner:
            document = planner.plan(_request()).to_dict()
        # the keys a parent-commit planner wrote
        document["warm_donor"] = True
        document["explain"].update(warm_donor="d" * 64, replan_seed=True)
        document["explain"]["solve"]["warm_seeded"] = True
        back = PlanResponse.from_dict(document)
        assert back.ok and back.explain.source == "solve"
        assert "warm_donor" not in back.to_dict()
        assert "warm_donor" not in back.explain.to_dict()


class TestStatsThreadSafety:
    """The stats counters survive concurrent hammering (PR 5 satellite).

    The fleet daemon thread bumps counters alongside pool callbacks and
    caller threads; before the single stats lock, concurrent increments
    could be lost (read-modify-write races on the dataclass fields).
    """

    def test_concurrent_plans_count_exactly(self):
        with Planner(executor="inline") as planner:
            planner.plan(_request())  # populate the cache
            threads_n, per_thread = 8, 25
            errors = []

            def hammer():
                try:
                    for _ in range(per_thread):
                        assert planner.plan(_request()).ok
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=hammer)
                       for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            stats = planner.stats()
            assert stats["requests"] == 1 + threads_n * per_thread
            assert stats["hits"] == threads_n * per_thread
