"""The solve pool: concurrent synthesis with request coalescing.

Distinct instances solve in parallel across a ``ProcessPoolExecutor``
(TE-CCL solves are CPU-bound MILP/LP runs — separate processes sidestep the
GIL and isolate solver memory); *identical* concurrent requests coalesce
onto one in-flight future, so a thundering herd of equivalent requests costs
exactly one solve. That pairing — coalesce the identical, parallelise the
distinct — is what lets one planner serve many tenants whose training jobs
all start at the same time.

Work crosses the process boundary as plain dicts (``PlanRequest.to_dict`` /
``SynthesisResult.to_dict``), never as live solver objects: dicts are
trivially picklable and are exactly what the schedule cache stores, so the
pool's output can be archived without another conversion. The in-process
executors hand back the solved result itself (:func:`solve_result`): it
has no boundary to cross, and the planner serves it without parsing it back.

Three executor kinds are supported:

* ``"process"`` — the production default, true parallelism;
* ``"thread"``  — cheaper startup; fine for tests and for I/O-dominated
  mixes (scipy's HiGHS calls release the GIL for long stretches);
* ``"inline"``  — no concurrency, solves on the calling thread; useful for
  debugging and deterministic tests.
"""

from __future__ import annotations

import concurrent.futures as _futures
import threading
from dataclasses import replace

from repro.errors import ServiceError
from repro.obs import recorder as _flight
from repro.obs import trace as _obs
from repro.obs.metrics import CounterFields

_EXECUTOR_KINDS = ("process", "thread", "inline")


def solve_request(request_dict: dict) -> dict:
    """Solve one serialised request into its serialised result;
    module-level so workers can pickle it (see :func:`solve_result`)."""
    return solve_result(request_dict).to_dict()


def solve_result(request_dict: dict):
    """Solve one serialised request; the result, ``outcome`` and ``hyper``
    dropped as in a parsed one, so every serve path hands out the same.

    ``request_dict["_obs"]`` is the submitting request's trace carrier:
    activating it stitches this solve's spans (which may run in another
    process) back under the submitting trace, appending to the same
    JSONL sink. ``request_dict["_fingerprint"]`` labels this worker's
    flight-recorder records so a post-incident dump correlates them with
    the serving request.
    """
    from repro.core.solve import synthesize
    from repro.service.schema import PlanRequest

    request = PlanRequest.from_dict(request_dict)
    with _obs.activate(request_dict.get("_obs")), \
            _flight.context(request_dict.get("_fingerprint")):
        with _obs.span("pool.solve", method=request.method.value):
            result = synthesize(request.topology, request.demand,
                                request.config,
                                method=request.method,
                                astar_config=request.astar_config,
                                minimize_epochs=request.minimize_epochs)
    return replace(result, outcome=None, hyper=None)


class PoolStats(CounterFields):
    """Counters for one pool instance (cumulative since construction).

    Backed by a per-pool :class:`~repro.obs.metrics.MetricsRegistry`:
    :meth:`inc` bumps a counter, the fields (``submitted``, ``coalesced``,
    ``completed``, ``errors``, the derived ``solves``) read back as ``int``
    attributes, and the :meth:`to_dict` shape is unchanged from the
    pre-registry dataclass.
    """

    _FIELDS = ("submitted", "coalesced", "completed", "errors")
    _PREFIX = "pool"
    _DESCRIPTION = "pool {words} requests (cumulative)"
    __slots__ = ("registry", "_counters")

    @property
    def solves(self) -> int:
        """Underlying solver invocations (submissions, not coalesced joins)."""
        return self.submitted

    def to_dict(self) -> dict:
        return {
            "solves": self.solves,
            "coalesced": self.coalesced,
            "completed": self.completed,
            "errors": self.errors,
        }


class SolvePool:
    """A bounded executor with per-fingerprint request coalescing.

    Args:
        max_workers: executor width (ignored for ``"inline"``).
        executor: one of ``"process"``, ``"thread"``, ``"inline"``.
        solve_fn: the worker function; overridable for tests. Must be
            picklable (module-level) when ``executor="process"``. Default:
            :func:`solve_request` in worker processes, :func:`solve_result`
            in process.
    """

    def __init__(self, max_workers: int | None = None,
                 executor: str = "process",
                 solve_fn=None) -> None:
        if executor not in _EXECUTOR_KINDS:
            raise ServiceError(
                f"unknown executor kind {executor!r}; "
                f"expected one of {_EXECUTOR_KINDS}")
        self.executor_kind = executor
        self._solve_fn = solve_fn or (
            solve_request if executor == "process" else solve_result)
        self._lock = threading.Lock()
        self._inflight: dict[str, _futures.Future] = {}
        self.stats = PoolStats()
        if executor == "process":
            self._executor: _futures.Executor | None = \
                _futures.ProcessPoolExecutor(max_workers=max_workers)
        elif executor == "thread":
            self._executor = _futures.ThreadPoolExecutor(
                max_workers=max_workers,
                thread_name_prefix="teccl-solve")
        else:
            self._executor = None

    # ------------------------------------------------------------------
    def submit(self, fingerprint: str, request_dict: dict,
               on_complete=None) -> tuple[_futures.Future, bool]:
        """Submit a solve, or join the identical one already in flight.

        Returns ``(future, coalesced)``: the future resolves to what
        ``solve_fn`` returns — by default the serialised
        :class:`~repro.core.solve.SynthesisResult` dict from a worker
        process, the result itself from an in-process executor — and
        ``coalesced`` is True when the request piggybacked on an in-flight
        solve instead of starting its own.

        ``on_complete(fingerprint, future)``, if given, runs *before* the
        fingerprint leaves the in-flight registry. The planner archives the
        result there: because archival strictly precedes deregistration, a
        concurrent identical request always finds the solve either still in
        flight (coalesces) or already in the cache — never neither.
        """
        with self._lock:
            existing = self._inflight.get(fingerprint)
            if existing is not None:
                self.stats.inc("coalesced")
                return existing, True
            self.stats.inc("submitted")
            if self._executor is None:
                future: _futures.Future = _futures.Future()
            else:
                future = self._executor.submit(self._solve_fn, request_dict)
            self._inflight[fingerprint] = future
        if self._executor is None:
            # Inline: solve on the calling thread. The future is already
            # registered, so re-entrant submits from a solve_fn still coalesce.
            try:
                future.set_result(self._solve_fn(request_dict))
            except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
                future.set_exception(exc)
        # Done-callbacks fire in registration order (immediately, in this
        # thread, when the future already completed) — archive, then retire.
        if on_complete is not None:
            future.add_done_callback(
                lambda f, fp=fingerprint: on_complete(fp, f))
        future.add_done_callback(
            lambda f, fp=fingerprint: self._on_done(fp, f))
        return future, False

    def _on_done(self, fingerprint: str, future: _futures.Future) -> None:
        with self._lock:
            if self._inflight.get(fingerprint) is future:
                del self._inflight[fingerprint]
            if future.cancelled() or future.exception() is not None:
                self.stats.inc("errors")
            else:
                self.stats.inc("completed")

    # ------------------------------------------------------------------
    @staticmethod
    def wait(future: _futures.Future, timeout: float | None = None):
        """Block for a result; maps executor timeouts onto ServiceError.

        The underlying solve is *not* cancelled on timeout — it may be
        shared with coalesced waiters, and its result still warms the cache.
        """
        try:
            return future.result(timeout=timeout)
        except _futures.TimeoutError:
            raise ServiceError(
                f"solve did not finish within {timeout} s "
                "(the solve keeps running and will populate the cache)"
            ) from None

    @property
    def inflight_count(self) -> int:
        with self._lock:
            return len(self._inflight)

    def shutdown(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait)

    def __enter__(self) -> "SolvePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
