"""Regression pins: the stats surfaces atop the metrics registry.

PR 6 moved ``PlannerStats``, ``PoolStats``, and the fleet controller's
counters onto :class:`repro.obs.metrics.MetricsRegistry`.  Every test in
this file pins the public surface — dict keys, value types, read-only
``int`` attributes — byte-for-byte, so downstream consumers of
``stats()`` dicts (status files, benches, the CLI) cannot silently
break.
"""

import json

import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.fleet import AdaptationController, FleetJob, SyntheticTelemetry
from repro.service import Planner
from repro.service.planner import PlannerStats
from repro.service.pool import PoolStats, SolvePool

pytestmark = pytest.mark.obs


class TestPlannerStats:
    def test_dict_shape_pinned(self):
        stats = PlannerStats()
        assert stats.to_dict() == {
            "requests": 0, "timeouts": 0, "conformance_checks": 0,
            "conformance_failures": 0, "symmetry_collapses": 0,
            "scale_collapses": 0}
        assert list(stats.to_dict()) == [
            "requests", "timeouts", "conformance_checks",
            "conformance_failures", "symmetry_collapses", "scale_collapses"]

    def test_values_stay_ints(self):
        stats = PlannerStats()
        stats.inc("requests", 3)
        stats.inc("symmetry_collapses", 2)
        assert stats.requests == 3
        assert stats.to_dict()["symmetry_collapses"] == 2
        with pytest.raises(AttributeError):
            stats.requests = 5  # counters only move through inc()
        assert isinstance(stats.requests, int)
        assert all(isinstance(v, int) for v in stats.to_dict().values())
        json.dumps(stats.to_dict())  # JSON-safe, as status files require

    def test_backed_by_registry(self):
        stats = PlannerStats()
        stats.inc("requests")
        snapshot = stats.registry.snapshot()
        assert snapshot["planner_requests_total"]["value"] == 1
        text = stats.registry.prometheus_text()
        assert "planner_requests_total 1" in text


class TestPoolStats:
    def test_dict_shape_pinned(self):
        stats = PoolStats()
        assert stats.to_dict() == {
            "solves": 0, "coalesced": 0, "completed": 0, "errors": 0}
        assert list(stats.to_dict()) == [
            "solves", "coalesced", "completed", "errors"]

    def test_solves_mirrors_submitted(self):
        stats = PoolStats()
        stats.inc("submitted", 2)
        assert stats.solves == 2
        assert isinstance(stats.solves, int)
        assert stats.registry.snapshot()["pool_submitted_total"]["value"] == 2

    def test_live_pool_counts(self):
        with SolvePool(executor="inline",
                       solve_fn=lambda request_dict: {"ok": True}) as pool:
            future, coalesced = pool.submit("fp", {})
            assert not coalesced
            assert pool.wait(future) == {"ok": True}
        assert pool.stats.to_dict() == {
            "solves": 1, "coalesced": 0, "completed": 1, "errors": 0}


class TestPlannerFacade:
    def test_stats_dict_shape_pinned(self):
        with Planner(executor="inline") as planner:
            stats = planner.stats()
        assert list(stats) == [
            "requests", "timeouts", "conformance_checks",
            "conformance_failures", "symmetry_collapses", "scale_collapses",
            "hits", "misses", "solves", "coalesced", "cache", "pool"]
        assert list(stats["cache"]) == [
            "hits", "memory_hits", "disk_hits", "misses", "stores",
            "evictions", "invalidations"]
        assert list(stats["pool"]) == ["solves", "coalesced", "completed",
                                       "errors"]

    def test_serve_latency_outside_stats(self):
        """The latency summary is additive API, not a stats() key."""
        with Planner(executor="inline") as planner:
            assert "serve_latency" not in planner.stats()
            latency = planner.serve_latency()
        assert set(latency) == {"count", "sum", "p50", "p95", "p99"}
        assert latency["count"] == 0

    def test_metrics_snapshot_merges_pool_scope(self):
        with Planner(executor="inline") as planner:
            snapshot = planner.metrics_snapshot()
        assert "planner_requests_total" in snapshot
        assert "planner_serve_latency_seconds" in snapshot
        assert "pool_submitted_total" in snapshot


class TestControllerStats:
    def test_stats_dict_shape_pinned(self):
        topo = topology.ring(4, capacity=1.0)
        with Planner(executor="inline") as planner:
            daemon = AdaptationController(
                topo, SyntheticTelemetry(topo), planner)
            daemon.add_job(FleetJob(
                name="a2a", demand=collectives.alltoall(topo.gpus, 1),
                config=TecclConfig(chunk_bytes=1.0)))
            daemon.step()
            stats = daemon.stats()
            status = daemon.status()
        assert list(stats) == [
            "polls", "samples", "transitions", "replans", "kept",
            "rollbacks", "failed", "errors", "adaptation_solve_time"]
        for key, value in stats.items():
            if key == "adaptation_solve_time":
                assert isinstance(value, float)
            else:
                assert isinstance(value, int)
        assert stats["polls"] == 1
        # the histogram-backed latency summary rides status(), not stats()
        assert set(status["serve_latency"]) == {"count", "sum", "p50",
                                                "p95", "p99"}
        json.dumps(status)  # the fleet status file must stay JSON-safe

    def test_counters_visible_in_metrics_registry(self):
        topo = topology.ring(4, capacity=1.0)
        with Planner(executor="inline") as planner:
            daemon = AdaptationController(
                topo, SyntheticTelemetry(topo), planner)
            daemon.step()
            snapshot = daemon.metrics.snapshot()
        assert snapshot["fleet_polls_total"]["value"] == 1
        assert "fleet_adaptation_solve_seconds_total" in snapshot


class TestHistogramQuantile:
    """Pinned interpolation arithmetic for ``Histogram.quantile``.

    Worked example: buckets (1, 2, 4, 8), observations
    (0.5, 1.5, 1.5, 3.0, 6.0) → per-bucket counts [1, 2, 1, 1, 0].
    The estimator linearly interpolates the target rank's fractional
    position inside the containing bucket, with both interval ends
    clamped to the observed min/max.
    """

    def _hist(self):
        from repro.obs.metrics import Histogram

        hist = Histogram("t_q", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 1.5, 3.0, 6.0):
            hist.observe(value)
        return hist

    def test_median_interpolates_within_bucket(self):
        # target rank 2.5 lands in the (1, 2] bucket after 1 prior
        # observation: frac = (2.5 - 1) / 2 = 0.75 → 1 + 0.75 × 1
        assert self._hist().quantile(0.5) == pytest.approx(1.75)

    def test_extremes_clamp_to_observed_range(self):
        hist = self._hist()
        assert hist.quantile(0.0) == pytest.approx(0.5)   # observed min
        assert hist.quantile(1.0) == pytest.approx(6.0)   # observed max

    def test_bucket_boundary_rank(self):
        # target rank 4.0 exactly exhausts the (2, 4] bucket → its hi end
        assert self._hist().quantile(0.8) == pytest.approx(4.0)

    def test_inf_bucket_uses_observed_max(self):
        from repro.obs.metrics import Histogram

        hist = Histogram("t_inf", buckets=(1.0,))
        for value in (0.5, 10.0, 20.0):
            hist.observe(value)
        # rank 2 of 3 sits halfway through the +Inf bucket: the open
        # interval is closed at the observed max → (1, 20], frac 0.5
        assert hist.quantile(2 / 3) == pytest.approx(10.5)
        assert hist.quantile(1.0) == pytest.approx(20.0)

    def test_degenerate_bucket_returns_single_value(self):
        from repro.obs.metrics import Histogram

        hist = Histogram("t_one", buckets=(1.0, 2.0, 4.0, 8.0))
        for _ in range(5):
            hist.observe(5.0)
        # lo and hi both clamp to 5.0 — no interval left to interpolate
        assert hist.quantile(0.5) == 5.0

    def test_empty_is_nan(self):
        import math

        from repro.obs.metrics import Histogram

        assert math.isnan(Histogram("t_empty").quantile(0.5))

    def test_out_of_range_q_raises(self):
        from repro.errors import ObservabilityError

        with pytest.raises(ObservabilityError):
            self._hist().quantile(1.5)


def _parse_prometheus(text: str):
    """Parse exposition text into (help, types, series) dicts."""
    helps, types, series = {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, rest = line[len("# HELP "):].partition(" ")
            helps[name] = rest
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            types[name] = kind
        elif line:
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    return helps, types, series


class TestPrometheusRoundTrip:
    """``prometheus_text`` must agree with ``snapshot()`` when parsed back."""

    def _registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        counter = registry.counter("rt_requests_total", "requests served")
        counter.inc(7)
        registry.gauge("rt_inflight")  # description-less: no HELP line
        hist = registry.histogram("rt_latency_seconds", "serve latency",
                                  buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):  # 5.0 → the +Inf bucket
            hist.observe(value)
        return registry

    def test_help_and_type_lines(self):
        registry = self._registry()
        helps, types, _ = _parse_prometheus(registry.prometheus_text())
        assert helps["rt_requests_total"] == "requests served"
        assert "rt_inflight" not in helps  # no description, no HELP
        assert types == {"rt_requests_total": "counter",
                         "rt_inflight": "gauge",
                         "rt_latency_seconds": "histogram"}

    def test_series_match_snapshot(self):
        registry = self._registry()
        snapshot = registry.snapshot()
        _, _, series = _parse_prometheus(registry.prometheus_text())
        assert series["rt_requests_total"] == \
            snapshot["rt_requests_total"]["value"]
        assert series["rt_inflight"] == snapshot["rt_inflight"]["value"]
        hist = snapshot["rt_latency_seconds"]
        assert series["rt_latency_seconds_count"] == hist["count"]
        assert series["rt_latency_seconds_sum"] == \
            pytest.approx(hist["sum"])
        for bound, count in hist["buckets"]:
            le = bound if bound == "+Inf" else f"{bound:g}"
            assert series[f'rt_latency_seconds_bucket{{le="{le}"}}'] == count

    def test_inf_bucket_present_and_cumulative(self):
        registry = self._registry()
        _, _, series = _parse_prometheus(registry.prometheus_text())
        buckets = [(name, value) for name, value in series.items()
                   if name.startswith("rt_latency_seconds_bucket")]
        assert any('le="+Inf"' in name for name, _ in buckets)
        counts = [value for _, value in buckets]  # exposition order
        assert counts == sorted(counts)  # cumulative → non-decreasing
        assert counts[-1] == series["rt_latency_seconds_count"]
