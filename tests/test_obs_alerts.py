"""SLO alert engine and explain-record unit tests.

Covers the declarative rule kinds (value / ratio / rate), the
flattening of registry snapshots, the rate ring, the edge-triggered
engine, and the ExplainRecord serialization round-trip the flight
recorder and ``teccl explain`` depend on.
"""

import math

import pytest

from repro.errors import ObservabilityError
from repro.obs.alerts import (Alert, AlertEngine, AlertRule, SnapshotRing,
                              builtin_rules, flatten_snapshot)
from repro.obs.explain import ExplainRecord, solve_stats_subset
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.obs


# ----------------------------------------------------------------------
# flatten_snapshot
# ----------------------------------------------------------------------
class TestFlattenSnapshot:
    def test_counters_and_gauges_map_to_name(self):
        registry = MetricsRegistry()
        registry.counter("req_total").inc(4)
        registry.gauge("inflight").set(2.0)
        flat = flatten_snapshot(registry.snapshot())
        assert flat["req_total"] == 4.0
        assert flat["inflight"] == 2.0

    def test_histogram_expands_to_summary_series(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        flat = flatten_snapshot(registry.snapshot())
        assert flat["lat_seconds_count"] == 3.0
        assert flat["lat_seconds_sum"] == pytest.approx(2.55)
        assert "lat_seconds_p50" in flat
        assert "lat_seconds_p99" in flat

    def test_nan_quantiles_are_skipped(self):
        # an empty histogram has NaN quantiles; the flat view drops them
        registry = MetricsRegistry()
        registry.histogram("empty_seconds", buckets=(1.0,))
        flat = flatten_snapshot(registry.snapshot())
        assert flat["empty_seconds_count"] == 0.0
        assert not any(math.isnan(v) for v in flat.values())
        assert "empty_seconds_p99" not in flat

    def test_non_dict_entries_ignored(self):
        assert flatten_snapshot({"junk": 5, "ok": {"value": 1}}) == \
            {"ok": 1.0}


# ----------------------------------------------------------------------
# AlertRule kinds
# ----------------------------------------------------------------------
class TestAlertRule:
    def test_value_rule_fires_and_stays_quiet(self):
        rule = AlertRule(name="r", metric="errs", op=">", threshold=2)
        assert rule.evaluate({"errs": 3.0}) is not None
        assert rule.evaluate({"errs": 2.0}) is None

    def test_missing_metric_is_skipped_not_fired(self):
        rule = AlertRule(name="r", metric="absent", op=">", threshold=0)
        assert rule.evaluate({"other": 99.0}) is None

    def test_ratio_rule_hit_rate_style(self):
        # metric / (metric + denominator): the cache hit-rate shape
        rule = AlertRule(name="hits", metric="hits", denominator="misses",
                         kind="ratio", op="<", threshold=0.5)
        assert rule.evaluate({"hits": 1.0, "misses": 9.0}) is not None
        assert rule.evaluate({"hits": 9.0, "misses": 1.0}) is None

    def test_ratio_of_total(self):
        rule = AlertRule(name="fb", metric="fallbacks", denominator="total",
                         kind="ratio", ratio_of_total=True,
                         op=">", threshold=0.25)
        alert = rule.evaluate({"fallbacks": 1.0, "total": 2.0})
        assert alert.value == pytest.approx(0.5)

    def test_min_count_gates_early_life(self):
        rule = AlertRule(name="hits", metric="hits", denominator="misses",
                         kind="ratio", op="<", threshold=0.5, min_count=20)
        # only 10 observations: silent even though the ratio is terrible
        assert rule.evaluate({"hits": 1.0, "misses": 9.0}) is None
        assert rule.evaluate({"hits": 2.0, "misses": 18.0}) is not None

    def test_rate_rule_needs_a_ring(self):
        rule = AlertRule(name="r", metric="total", kind="rate",
                         op=">", threshold=1.0)
        assert rule.evaluate({"total": 50.0}, ring=None) is None
        ring = SnapshotRing()
        ring.sample({"total": 0.0}, now=100.0)
        ring.sample({"total": 40.0}, now=110.0)
        alert = rule.evaluate({"total": 40.0}, ring=ring)
        assert alert.value == pytest.approx(4.0)

    def test_validation_rejects_bad_rules(self):
        with pytest.raises(ObservabilityError):
            AlertRule(name="r", metric="m", op="!=", threshold=0)
        with pytest.raises(ObservabilityError):
            AlertRule(name="r", metric="m", op=">", threshold=0,
                      kind="median")
        with pytest.raises(ObservabilityError):
            AlertRule(name="r", metric="m", op=">", threshold=0,
                      kind="ratio")  # ratio without denominator

    def test_from_dict_roundtrip_and_rejections(self):
        doc = {"name": "r", "metric": "m", "op": ">", "threshold": 1.5,
               "severity": "critical"}
        rule = AlertRule.from_dict(doc)
        assert rule.threshold == 1.5
        assert rule.severity == "critical"
        with pytest.raises(ObservabilityError):
            AlertRule.from_dict({**doc, "bogus_key": 1})
        with pytest.raises(ObservabilityError):
            AlertRule.from_dict({"name": "r", "metric": "m"})

    def test_alert_to_dict_shape(self):
        rule = AlertRule(name="r", metric="m", op=">", threshold=1.0,
                         description="d")
        alert = Alert(rule=rule, value=2.0)
        doc = alert.to_dict()
        assert set(doc) == {"name", "severity", "metric", "value", "op",
                            "threshold", "description"}
        assert "m=2" in alert.render()


# ----------------------------------------------------------------------
# SnapshotRing
# ----------------------------------------------------------------------
class TestSnapshotRing:
    def test_rate_and_delta(self):
        ring = SnapshotRing()
        ring.sample({"c": 10.0}, now=0.0)
        ring.sample({"c": 25.0}, now=5.0)
        assert ring.rate("c") == pytest.approx(3.0)
        assert ring.delta("c") == pytest.approx(15.0)
        assert ring.rate("absent") is None

    def test_single_sample_has_no_rate(self):
        ring = SnapshotRing()
        ring.sample({"c": 10.0}, now=0.0)
        assert ring.rate("c") is None
        assert ring.delta("c") is None

    def test_capacity_bounds_the_window(self):
        ring = SnapshotRing(capacity=2)
        for step in range(5):
            ring.sample({"c": float(step)}, now=float(step))
        assert len(ring) == 2
        assert ring.delta("c") == pytest.approx(1.0)  # only the last two

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ObservabilityError):
            SnapshotRing(capacity=1)


# ----------------------------------------------------------------------
# AlertEngine
# ----------------------------------------------------------------------
class TestAlertEngine:
    def _snapshot(self, failures: int) -> dict:
        registry = MetricsRegistry()
        registry.counter("planner_conformance_failures_total").inc(failures)
        return registry.snapshot()

    def test_newly_fired_edge_trigger(self):
        engine = AlertEngine()
        assert engine.evaluate(self._snapshot(0), now=0.0) == []
        assert engine.newly_fired == []
        [alert] = engine.evaluate(self._snapshot(1), now=1.0)
        assert alert.rule.name == "conformance_failures"
        assert engine.newly_fired == ["conformance_failures"]
        # still firing, but no longer *newly* firing
        [alert] = engine.evaluate(self._snapshot(1), now=2.0)
        assert engine.newly_fired == []

    def test_custom_rules_replace_builtins(self):
        rule = AlertRule(name="only", metric="x", op=">=", threshold=1)
        engine = AlertEngine(rules=[rule])
        assert [r.name for r in engine.rules] == ["only"]
        [alert] = engine.evaluate({"x": {"value": 1}}, now=0.0)
        assert alert.rule.name == "only"

    def test_builtin_rules_are_the_roadmap_six(self):
        """... and ``horizon_retry_rate``, the seventh."""
        assert sorted(rule.name for rule in builtin_rules()) == [
            "cache_hit_rate_floor",
            "conformance_failures",
            "fleet_rollbacks",
            "horizon_retry_rate",
            "serve_latency_p99_ceiling",
            "symmetry_fallback_rate",
            "wal_append_latency_p99",
        ]


    def test_horizon_retry_rate_counts_what_the_ladder_climbs(self,
                                                              monkeypatch):
        """An undershooting first rung is a decision with a counter: the
        ladder books every solve and every re-solved rung in the process
        registry, the rule fires past one retry in four over >= 8 solves,
        and the explain record shows the slack that was built."""
        from repro import collectives, topology
        from repro.core import TecclConfig, epochs, synthesize
        from repro.obs.metrics import get_registry

        [rule] = [r for r in builtin_rules()
                  if r.name == "horizon_retry_rate"]
        assert rule.evaluate({"horizon_solves_total": 7.0,
                              "horizon_retries_total": 7.0}) is None
        assert rule.evaluate({"horizon_solves_total": 8.0,
                              "horizon_retries_total": 2.0}) is None
        assert rule.evaluate({"horizon_solves_total": 8.0,
                              "horizon_retries_total": 3.0}) is not None

        def counts():
            flat = flatten_snapshot(get_registry().snapshot())
            return (flat.get("horizon_solves_total", 0.0),
                    flat.get("horizon_retries_total", 0.0))

        ring8 = topology.ring(8, capacity=1.0)
        demand = collectives.alltoall(ring8.gpus, 1)
        config = TecclConfig(chunk_bytes=1.0)
        solves, retries = counts()
        result = synthesize(ring8, demand, config)
        assert counts() == (solves + 1, retries)
        solve = result.explain
        assert solve["finish_epoch"] == result.schedule.finish_epoch \
            < solve["horizon_epochs"] == 12
        monkeypatch.setattr(epochs, "path_based_epoch_bound",
                            lambda topology, demand, plan, copy=None: 3)
        result = synthesize(ring8, demand, config)
        assert result.explain["stats"]["horizon_attempts"] == 3
        assert counts() == (solves + 2, retries + 2)

# ----------------------------------------------------------------------
# ExplainRecord
# ----------------------------------------------------------------------
class TestExplainRecord:
    def test_roundtrip(self):
        record = ExplainRecord(
            source="solve", fingerprint="abc123", tag="t",
            conformance="ok", serve_time=0.25,
            phases={"planner.submit": 0.01},
            solve={"method": "milp", "stats": {"horizon_attempts": 2}})
        clone = ExplainRecord.from_dict(record.to_dict())
        assert clone == record

    def test_from_dict_ignores_unknown_and_defaults_missing(self):
        # unknown = a later field, or one a parent-commit planner wrote
        record = ExplainRecord.from_dict(
            {"source": "cache", "future_field": 1,
             "warm_donor": "donor9", "replan_seed": True})
        assert record.source == "cache"
        assert record.conformance == "unchecked"
        assert record.phases == {}

    def test_render_mentions_the_evidence(self):
        record = ExplainRecord(
            source="solve", fingerprint="abc123", cache_hit=False,
            symmetry_collapsed=True,
            conformance="ok", serve_time=0.002,
            phases={"planner.submit": 0.001},
            solve={"method": "milp",
                   "stats": {"symmetry_orbits": 4,
                             "symmetry_cols_reduced": 10}})
        text = record.render()
        assert "source        : solve" in text
        assert "abc123" in text
        assert "symmetry-collapsed" in text
        assert "symmetry_orbits" in text
        assert "planner.submit" in text

    def test_gap_limited_milp_shows_its_status_and_gap(self):
        """An early-stopped solve is told apart from a proven optimum (and
        a limit-stopped incumbent from a failure) in the record itself."""
        from repro import collectives, topology
        from repro.core import TecclConfig, synthesize
        from repro.solver import SolverOptions

        line5 = topology.line(5)
        config = TecclConfig(chunk_bytes=1.0,
                             solver=SolverOptions(mip_gap=0.3))
        solve = synthesize(line5, collectives.allgather(line5.gpus, 2),
                           config).explain
        assert solve["method"] == "milp"
        assert solve["solver_status"] == "gap_limit"
        assert 0.0 < solve["mip_gap"] <= 0.3
        text = ExplainRecord(solve=solve).render()
        assert "  solver_status       : gap_limit" in text
        assert f"  mip_gap             : {solve['mip_gap']}" in text

    def test_error_record_renders_error_line(self):
        record = ExplainRecord(source="error", error="boom")
        assert "error         : boom" in record.render()

    def test_solve_stats_subset_filters_to_scalars(self):
        stats = {"horizon_attempts": 3, "symmetry_orbits": 4,
                 "matrix": [[1, 2]], "build_time": 0.5, "junk": object()}
        subset = solve_stats_subset(stats)
        assert subset == {"horizon_attempts": 3, "symmetry_orbits": 4,
                          "build_time": 0.5}
        assert solve_stats_subset(None) == {}

    def test_symmetric_solve_explains_its_compression(self, monkeypatch):
        """The names the quotient stamps are the names the record lifts:
        a real symmetry-on solve reports how far the LP was compressed."""
        from repro import collectives, topology
        from repro.core import TecclConfig, symmetry, synthesize
        from repro.solver import SolverOptions
        from symmetry_oracle import oracle_generators

        # the index-pattern oracle's redundant group elements, so the
        # quotient has generators to skip
        monkeypatch.setattr(symmetry, "find_generators", oracle_generators)
        ring8 = topology.ring(8, capacity=1.0)
        result = synthesize(ring8, collectives.alltoall(ring8.gpus, 1),
                            TecclConfig(chunk_bytes=1.0,
                                        solver=SolverOptions(symmetry="on")))
        stats = result.explain["stats"]
        assert stats["symmetry_conformant"] is True
        assert stats["symmetry_cols_reduced"] < stats["symmetry_cols_full"]
        assert stats["symmetry_rows_reduced"] < stats["symmetry_rows_full"]
        assert stats["symmetry_orbits"] == stats["symmetry_cols_reduced"]
        # a skip is a decision: ring8's 15 verified generators are offered,
        # a generating set of the same group is folded, the rest counted
        assert stats["symmetry_generators"] == 2
        assert stats["symmetry_generators_skipped"] == 13
        assert stats["symmetry_group_order"] == 16  # the dihedral group

    def test_searched_generators_leave_nothing_to_skip(self):
        from repro import collectives, topology
        from repro.core import TecclConfig, synthesize
        from repro.solver import SolverOptions

        ring8 = topology.ring(8, capacity=1.0)
        result = synthesize(ring8, collectives.alltoall(ring8.gpus, 1),
                            TecclConfig(chunk_bytes=1.0,
                                        solver=SolverOptions(symmetry="on")))
        stats = result.explain["stats"]
        assert stats["symmetry_group_order"] == 16
        assert stats["symmetry_generators"] == 2
        assert stats["symmetry_generators_skipped"] == 0
