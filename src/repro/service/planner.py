"""The ``Planner``: cache → coalesce → pool → ``synthesize``, as one API.

This is the serving layer the ROADMAP's north star asks for. A caller hands
over a :class:`~repro.service.schema.PlanRequest`; the planner

1. **fingerprints** it (canonical form, §fingerprint) so equivalent
   requests are recognised regardless of how their objects were built;
2. serves **cache hits** without touching a solver — the paper's
   amortisation (one synthesis, millions of iterations) as a lookup;
3. **coalesces** concurrent identical misses onto one in-flight solve;
4. dispatches distinct misses to the **solve pool**, which runs them in
   parallel, and archives every fresh result in the cache on the way out.

``plan()`` raises on failure; ``plan_batch()`` captures per-request errors
in the responses so one infeasible instance cannot sink a batch; ``warm()``
is ``plan_batch`` for pre-populating the cache before traffic arrives.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from pathlib import Path

from repro.core import symmetry as _symmetry
from repro.core.config import SwitchModel
from repro.core.solve import SynthesisResult
from repro.errors import ReproError, ServiceError
from repro.obs import recorder as _flight
from repro.obs import trace as _obs
from repro.obs.explain import ExplainRecord
from repro.obs.metrics import CounterFields
from repro.obs.metrics import get_registry as _default_registry
from repro.service.cache import CacheEntry, ScheduleCache
from repro.service.fingerprint import fingerprint_facts, rescale_of
from repro.service.pool import SolvePool
from repro.service.schema import PlanRequest, PlanResponse
from repro.topology.facts import TopologyFacts, topology_facts


class PlannerStats(CounterFields):
    """Aggregated serving counters (cumulative since construction).

    The counters live on a per-planner
    :class:`~repro.obs.metrics.MetricsRegistry`: :meth:`inc` bumps one
    (atomic under the counter's own lock), each field reads back as an
    ``int`` attribute, and ``to_dict`` keeps the exact pre-registry key
    set.

    Fields: ``requests``, ``timeouts``, ``conformance_checks``,
    ``conformance_failures``, ``symmetry_collapses`` (requests rewritten
    onto a canonical demand under a topology automorphism, so symmetric
    variants share one cache entry), ``scale_collapses`` (requests
    answered on their fabric in units of its fastest link and rescaled
    back: every proved request on a fabric not in those units, whether or
    not another fabric shares the entry).
    """

    _FIELDS = ("requests", "timeouts", "conformance_checks",
               "conformance_failures", "symmetry_collapses",
               "scale_collapses")
    _PREFIX = "planner"
    _DESCRIPTION = "planner {words} (cumulative)"
    __slots__ = ("registry", "_counters")


def _entry_of(value) -> CacheEntry:
    """A cache entry for what a pool's solve returned: a worker's payload,
    or an in-process solve's result as its parsed form."""
    if isinstance(value, SynthesisResult):
        value.payload = value.to_dict()
        return CacheEntry(value.payload, value)
    return CacheEntry(value)


class Planner:
    """Schedule-planning service over the synthesis facade.

    A cache hit costs a content hash and a few lookups: fabric-only facts
    (:mod:`repro.topology.facts`), fingerprint fragments and the parsed
    result are all remembered. The result a hit returns is therefore
    **shared** with every other hit on its entry — treat
    ``response.result`` as read-only. A served fractional schedule is
    read-only by type: :class:`~repro.core.schedule.FlowSchedule` is
    frozen, its ``flows`` and ``reads`` are read-only mappings, and it
    holds the column view every replay of it reads, so a replay on each
    hit converts no dicts. A hit's explain record is
    serialized only for a flight directory's ``last_explain.json``;
    without one configured it builds no document.

    Args:
        executor: solve-pool kind — ``"process"`` (default), ``"thread"``,
            or ``"inline"``; see :class:`~repro.service.pool.SolvePool`.
        max_workers: pool width.
        cache_dir: enables the on-disk cache tier when set.
        cache_capacity: in-memory LRU size.
        timeout: default per-request wall-clock budget in seconds
            (``None`` = wait forever); overridable per call.
        check_conformance: replay every served schedule against the
            request's own fabric and demand, in the caller's node ids,
            chunk ids and units, through the conformance engine
            (:func:`repro.simulate.check_result`) before handing it out; a
            non-conformant result becomes a failed response instead of
            reaching the caller. Covers cache hits too (a stale or
            corrupted cache entry is exactly what the oracle exists to
            catch).
        cache / pool: inject pre-built components (tests, shared caches).

    Each request is rewritten onto its canonical form, which is what is
    fingerprinted and solved: its fabric in units of the fastest link
    wherever :func:`~repro.service.fingerprint.rescale_of` proves the
    model unchanged (so a fleet-wide congestion on a fabric with α = 0
    is a hit; with α > 0 the event changes ``⌈α/τ⌉`` and misses), and its
    demand's canonical form under the fabric's automorphism group, where
    chunk ids are labels: the relabeling whose sorted ``(source,
    destination set)`` chunk rows are lexicographically least, each
    source's chunks renumbered in row order (not with
    ``config.solver.symmetry`` ``"off"``, priorities, a capacity hook or
    the hyper-edge switch model). So every root of a scatter on a ring
    shares one entry. Results are mapped back to the caller's node and
    chunk ids and rescaled before being returned. An in-process miss
    serves the solved result itself, ``outcome`` dropped.
    """

    def __init__(self, *, executor: str = "process",
                 max_workers: int | None = None,
                 cache_dir: str | Path | None = None,
                 cache_capacity: int = 128,
                 timeout: float | None = None,
                 check_conformance: bool = False,
                 cache: ScheduleCache | None = None,
                 pool: SolvePool | None = None) -> None:
        self.cache = cache if cache is not None else ScheduleCache(
            capacity=cache_capacity, directory=cache_dir)
        # An injected pool may be shared with other planners; only a
        # pool this planner created is shut down by close().
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else SolvePool(
            max_workers=max_workers, executor=executor)
        self.default_timeout = timeout
        self.check_conformance = check_conformance
        self._stats = PlannerStats()
        self.registry = self._stats.registry
        self._serve_latency = self.registry.histogram(
            "planner_serve_latency_seconds",
            "end-to-end serve latency per request")
        # Guards the cache-probe → pool-submit step and the archive callback
        # as one atomic unit (RLock: the inline executor archives on the
        # submitting thread, re-entering while _start still holds the lock).
        self._lock = threading.RLock()

    def _bump(self, **deltas: int) -> None:
        """Add ``deltas`` to the named stats counters (each one atomic)."""
        for field_name, delta in deltas.items():
            self._stats.inc(field_name, delta)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def plan(self, request: PlanRequest, *,
             timeout: float | None = None) -> PlanResponse:
        """Serve one request; raises :class:`ReproError` on failure."""
        return self._finish(*self._start(request),
                            timeout=self._budget(timeout), raise_errors=True)

    def plan_batch(self, requests: list[PlanRequest], *,
                   timeout: float | None = None) -> list[PlanResponse]:
        """Serve many requests; errors land in ``response.error``.

        All misses are submitted before any result is awaited, so distinct
        instances overlap across the pool and identical ones coalesce.
        """
        budget = self._budget(timeout)
        deadline = None if budget is None else time.perf_counter() + budget
        started = [self._start(request) for request in requests]
        responses = []
        for start in started:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.perf_counter())
            responses.append(self._finish(*start, timeout=remaining,
                                          raise_errors=False))
        return responses

    def warm(self, requests: list[PlanRequest], *,
             timeout: float | None = None) -> int:
        """Pre-populate the cache; returns the number of fresh solves."""
        responses = self.plan_batch(requests, timeout=timeout)
        return sum(1 for r in responses if r.ok and not r.cache_hit
                   and not r.coalesced)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _budget(self, timeout: float | None) -> float | None:
        return self.default_timeout if timeout is None else timeout

    def _canonical_request(self, facts: TopologyFacts, request: PlanRequest):
        """Rewrite a request onto its canonical fabric and demand.

        Returns ``served = (facts, demand, inverse, rescale)``: the
        canonical fabric's facts and the canonical demand, and what maps
        results back — the :class:`~repro.core.symmetry.Relabeling` to the
        caller's node and chunk ids and the
        :class:`~repro.service.fingerprint.Rescale` to the caller's units
        (each ``None`` where nothing was rewritten). The relabeling is an
        exact one under a *verified* automorphism, so a truncated
        canonicalization search can only miss a cache collapse, never
        produce a wrong equivalence. Only a miss builds the canonical
        :class:`PlanRequest` (:meth:`_solvable`).
        """
        config = request.config
        rescale = rescale_of(facts, config)
        if rescale is not None:
            facts = rescale.unit
        if (config.solver.symmetry == "off" or config.priorities
                or config.capacity_fn is not None
                or config.switch_model is SwitchModel.HYPER_EDGE):
            return facts, request.demand, None, rescale
        demand, inverse = _symmetry.canonicalize(facts, request.demand)
        if inverse is not None:
            self._bump(symmetry_collapses=1)
        return facts, demand, inverse, rescale

    @staticmethod
    def _solvable(request: PlanRequest, served) -> PlanRequest:
        """The canonical request the pool solves for ``request``."""
        facts, demand, _, rescale = served
        return replace(request, demand=demand, topology=(
            request.topology if rescale is None else facts.topology))

    def _start(self, request: PlanRequest):
        """Facts lookup + canonicalize + fingerprint + cache probe + (on
        miss) pool submission — all on the serve clock and inside the
        phase collector.

        Returns ``(request, served, fingerprint, pending)``: the caller's
        request, its canonical form (:meth:`_canonical_request`), and
        ``pending = (t0, explain, source, coalesced)`` whose ``source`` is
        the hit's :class:`CacheEntry` or the miss's future.
        """
        explain = ExplainRecord(tag=request.tag)
        t0 = time.perf_counter()
        with _flight.collect_phases() as phases:
            with _obs.span("planner.canonicalize") as canon_sp:
                facts, known = topology_facts(request.topology)
                canon_sp.set_attr(facts="hit" if known else "miss")
                served = self._canonical_request(facts, request)
            facts, demand, inverse, rescale = served
            explain.symmetry_collapsed = inverse is not None
            self._stats.inc("requests")
            if rescale is not None:
                explain.scale = rescale.scale
                self._stats.inc("scale_collapses")
            with _obs.span("planner.fingerprint"):
                fingerprint = explain.fingerprint = fingerprint_facts(
                    facts, demand, request.config, request.method,
                    request.astar_config, request.minimize_epochs)
            with _obs.span("planner.cache_lookup") as lookup_sp, self._lock:
                entry = self.cache.entry(fingerprint) \
                    if self.cache.get(fingerprint) is not None else None
                lookup_sp.set_attr(hit=entry is not None)
            submitted = (entry, False) if entry is not None else \
                self._submit(self._solvable(request, served), fingerprint)
        explain.phases.update(phases)
        return request, served, fingerprint, (t0, explain, *submitted)

    def _submit(self, request: PlanRequest, fingerprint: str):
        """A miss: hand the request to the pool (or join its in-flight
        twin). Returns ``(source, coalesced)``."""
        # Outside the lock: to_dict() serialises the whole request — pure
        # CPU work that must not stall concurrent requests on self._lock.
        with _obs.span("planner.serialize"):
            request_dict = request.to_dict()
        with _obs.span("planner.submit") as submit_sp, self._lock:
            # re-probe: the solve of an identical request may have been
            # archived while we were serialising (peek, not get: the
            # miss was already counted once)
            payload = self.cache.peek(fingerprint)
            if payload is not None:
                return (self.cache.entry(fingerprint)
                        or CacheEntry(payload)), False
            ctx = _obs.current_context()
            if ctx is not None:
                request_dict["_obs"] = ctx
            # the worker labels its flight-recorder records with this, so
            # a dump correlates pool-side spans with the serving request
            request_dict["_fingerprint"] = fingerprint
            # Atomic with the probe above: the pool either coalesces onto an
            # in-flight solve or starts one; _archive (which runs before the
            # pool retires the fingerprint) also serialises on self._lock, so
            # no request can fall between "not cached" and "not in flight".
            future, coalesced = self.pool.submit(
                fingerprint, request_dict, on_complete=self._archive)
            submit_sp.set_attr(coalesced=coalesced)
        return future, coalesced

    def _observe(self, response: PlanResponse) -> PlanResponse:
        """Record the response's end-to-end latency in the histogram."""
        if response.serve_time is not None:
            self._serve_latency.observe(response.serve_time)
        return response

    def _archive(self, fingerprint: str, future) -> None:
        """Store a completed solve in the cache (runs on the pool's thread)."""
        if future.cancelled() or future.exception() is not None:
            return
        with self._lock:
            self.cache.put(fingerprint, _entry_of(future.result()))

    def _solved(self, fingerprint: str, value) -> CacheEntry:
        """The entry a finished solve was archived under, so a miss and
        the hits after it share one parsed form (a fresh one where the
        archive has not run yet or was since replaced)."""
        with self._lock:
            entry = self.cache.entry(fingerprint)
        return entry if entry is not None and entry.holds(value) \
            else _entry_of(value)

    def _post_check(self, request: PlanRequest, response: PlanResponse,
                    raise_errors: bool) -> None:
        """Optional conformance replay (``check_conformance``) of the
        result as served, against what the caller asked for: the
        request's fabric and demand, in its node ids and units. A
        hyper-edge result is replayed in the transformed space it
        carries (its own fabric and demand)."""
        if not self.check_conformance:
            return
        from repro.simulate import check_result

        config = request.config
        if (config.switch_model is SwitchModel.HYPER_EDGE
                and request.topology.switches):
            report = check_result(response.result, config=config)
        else:
            report = check_result(response.result, topology=request.topology,
                                  demand=request.demand, config=config)
        response.conformance = report.to_dict()
        self._bump(conformance_checks=1,
                   conformance_failures=0 if report.ok else 1)
        if not report.ok:
            response.error = (
                "schedule failed conformance replay: "
                + "; ".join(str(v) for v in report.violations[:3]))
            if raise_errors:
                raise ServiceError(response.error)

    def _finish(self, request: PlanRequest, served, fingerprint: str,
                pending, *, timeout: float | None,
                raise_errors: bool) -> PlanResponse:
        explain = pending[1]
        # every record inside carries the request fingerprint as its
        # correlation label, so a flight dump reconstructs this serve
        with _flight.context(fingerprint):
            with _flight.collect_phases() as phases:
                try:
                    response = self._finish_inner(request, served,
                                                  fingerprint, pending,
                                                  timeout=timeout,
                                                  raise_errors=raise_errors)
                except ReproError as exc:
                    # raise_errors path: the caller sees the exception, the
                    # flight recorder keeps the full story (decision event
                    # with the explain record, then an incident dump)
                    self._close_explain(explain, phases, str(exc))
                    raise
            explain.serve_time = response.serve_time
            explain.conformance = (
                "unchecked" if response.conformance is None
                else "ok" if response.conformant else "failed")
            self._close_explain(explain, phases, response.error)
        return response

    @staticmethod
    def _close_explain(explain: ExplainRecord, phases: dict,
                       error: str | None) -> None:
        """Fold the finish phases in and flight-record the outcome.

        A success's document is built only for a flight directory's
        ``last_explain.json``; without one nothing reads it."""
        explain.phases.update(phases)
        if error is None:
            if _flight.dump_dir() is not None:
                _flight.save_last_explain(explain.to_dict())
            return
        explain.source = "error"
        explain.error = error
        _obs.event("planner.serve_failed", explain=explain.to_dict())
        _flight.auto_dump("planner-failure")

    def _finish_inner(self, request: PlanRequest, served, fingerprint: str,
                      pending, *, timeout: float | None,
                      raise_errors: bool) -> PlanResponse:
        _, _, inverse, rescale = served
        t0, explain, source, coalesced = pending
        hit = isinstance(source, CacheEntry)
        explain.source = "cache" if hit else \
            "coalesced" if coalesced else "solve"
        explain.cache_hit, explain.coalesced = hit, coalesced
        response = PlanResponse(
            fingerprint=fingerprint, cache_hit=hit, coalesced=coalesced,
            tag=request.tag, explain=explain)
        if not hit:
            try:
                with _obs.span("planner.wait"):
                    value = self.pool.wait(source, timeout)
                source = self._solved(fingerprint, value)
            except ReproError as exc:
                # a ServiceError is the wait timing out; anything else is a
                # solver-side failure (infeasible, ...)
                if isinstance(exc, ServiceError):
                    self._bump(timeouts=1)
                if raise_errors:
                    raise
                response.error = str(exc)
                response.serve_time = time.perf_counter() - t0
                return self._observe(response)
        # the entry's shared parsed forms (built on first use), in the
        # caller's units, then node ids
        with _obs.span("planner.deserialize"):
            canonical = response.result = source.result(None, rescale)
        explain.solve = canonical.explain
        if inverse is not None:
            with _obs.span("planner.relabel"):
                response.result = source.result(inverse, rescale)
        response.serve_time = time.perf_counter() - t0
        self._post_check(request, response, raise_errors and not hit)
        if response.ok or not hit:
            return self._observe(response)
        # A *cached* schedule failed its replay: the entry is poisoned
        # (bit-rot, a stale format, a buggy producer of an earlier
        # version). Expel it and re-solve rather than failing this
        # fingerprint forever.
        _obs.event("planner.cache_poisoned", fingerprint=fingerprint)
        with self._lock:
            self.cache.evict(fingerprint)
        resubmitted = self._submit(self._solvable(request, served),
                                   fingerprint)
        return self._finish_inner(
            request, served, fingerprint, (t0, explain, *resubmitted),
            timeout=timeout, raise_errors=raise_errors)

    # ------------------------------------------------------------------
    # introspection & lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One dict with the planner, cache, and pool counters (a snapshot)."""
        cache = self.cache.stats
        pool = self.pool.stats
        return {
            **self._stats.to_dict(),
            "hits": cache.hits,
            "misses": cache.misses,
            "solves": pool.solves,
            "coalesced": pool.coalesced,
            "cache": cache.to_dict(),
            "pool": pool.to_dict(),
        }

    def metrics_snapshot(self) -> dict:
        """JSON-ready dump of every planner *and* pool instrument.

        The planner and its pool keep separate registry scopes (metric
        name prefixes keep them collision-free); this merges both for
        persistence — ``teccl serve-batch --metrics-file`` writes it,
        ``teccl obs metrics`` renders it.
        """
        return {**self.registry.snapshot(),
                **self.pool.stats.registry.snapshot()}

    def serve_latency(self) -> dict:
        """Serve-latency summary: ``{count, sum, p50, p95, p99}``.

        Kept out of :meth:`stats` on purpose — that dict's shape is
        pinned by downstream consumers and regression tests.
        """
        return self._serve_latency.summary()

    def alert_snapshot(self) -> dict:
        """The merged snapshot the SLO alert engine evaluates.

        Planner + pool registries, the process default registry (symmetry
        reduction/fallback counters live there — core code has no planner
        handle), and the cache's hit/miss counters lifted into metric-
        shaped entries so ratio rules can reach them.
        """
        snapshot = {**self.metrics_snapshot(),
                    **_default_registry().snapshot()}
        cache = self.cache.stats
        snapshot["cache_hits_total"] = {"type": "counter",
                                        "value": cache.hits}
        snapshot["cache_misses_total"] = {"type": "counter",
                                          "value": cache.misses}
        return snapshot

    def close(self) -> None:
        if self._owns_pool:
            self.pool.shutdown()

    def __enter__(self) -> "Planner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
