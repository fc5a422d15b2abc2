"""Shared sub-solve execution: thread fan-out and fingerprint dedup.

Both decompositions in this package — POP partitions (:mod:`.pop`) and
hierarchical chassis phases (:mod:`.hierarchical`) — produce batches of
*independent* solver instances that today's callers run back to back.
This module is the one place that knows how to run such a batch:

* :func:`run_subsolves` fans zero-argument solve thunks out on a thread
  pool and returns their results in task order. Threads (not processes)
  are the right default here because the thunks close over live
  in-process objects — the fabric, a shared epoch plan, a
  :class:`SubSolveCache` — with no serialisation step, and scipy's HiGHS
  calls release the GIL for the long solver stretches. Process fan-out
  (requests serialised to dicts) lives in the service layer
  (:class:`~repro.service.pool.SolvePool`).
* :class:`SubSolveCache` coalesces *identical* sub-instances onto one
  solve by caller-provided fingerprint: the first requester computes, any
  concurrent or later requester for the same key waits on (or reads) the
  same future. A symmetric G-chassis fabric pays for 1 chassis solve
  instead of G per phase.

Error semantics mirror a sequential loop: every task runs to completion,
then the **lowest-index** failure is re-raised, so retry logic upstream
(e.g. POP's horizon doubling) observes the same exception no matter how
the batch was scheduled.
"""

from __future__ import annotations

import concurrent.futures as _futures
import os
import threading
from collections.abc import Callable, Sequence

from repro.obs.trace import span as _obs_span


def default_jobs() -> int:
    """Fan-out width when the caller does not pick one: the CPU count."""
    return max(1, os.cpu_count() or 1)


def run_subsolves(tasks: Sequence[Callable[[], object]], *,
                  jobs: int | None = None,
                  label: str = "subsolve") -> list:
    """Run independent sub-solve thunks; results come back in task order.

    Every task runs to completion regardless of width — including after
    another task failed — and the **lowest-index** failure is then
    re-raised. Results and the raised error are therefore identical
    whether the batch ran on one thread or eight, which is what lets a
    retry loop above produce bit-identical results for sequential and
    parallel dispatch.

    Args:
        tasks: zero-argument callables, one per sub-instance. Each must
            mutate only its own state — the batch may run on concurrent
            threads.
        jobs: maximum concurrent tasks; ``None`` means
            :func:`default_jobs`. ``jobs <= 1`` (or a single task) runs
            on the calling thread with no pool.
        label: obs span prefix — the fan-out emits ``{label}.fanout``.

    Raises:
        The lowest-index task's exception, after every task has run.
    """
    tasks = list(tasks)
    width = default_jobs() if jobs is None else jobs
    if len(tasks) <= 1 or width <= 1:
        results, first_error = [], None
        for task in tasks:
            try:
                results.append(task())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results
    width = min(width, len(tasks))
    with _obs_span(f"{label}.fanout", tasks=len(tasks), jobs=width):
        with _futures.ThreadPoolExecutor(
                max_workers=width,
                thread_name_prefix="teccl-subsolve") as pool:
            futures = [pool.submit(task) for task in tasks]
            _futures.wait(futures)
    for future in futures:
        error = future.exception()
        if error is not None:
            raise error
    return [future.result() for future in futures]


class SubSolveCache:
    """Fingerprint-keyed memo with in-flight coalescing.

    :meth:`solve` is safe to call from many threads: the first caller for
    a key becomes the owner and computes; everyone else (concurrent or
    later) blocks on the owner's future and shares the result object. An
    owner's exception is cached too — all requesters for that key see the
    same failure, never a silent re-solve.

    Attributes:
        solves: distinct keys computed (owner runs).
        hits: requests served from an existing entry or in-flight solve.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, _futures.Future] = {}
        self.solves = 0
        self.hits = 0

    def solve(self, key: str, fn: Callable[[], object]) -> tuple[object, bool]:
        """Return ``(result, hit)`` — ``hit`` is True when ``fn`` did not run."""
        with self._lock:
            future = self._entries.get(key)
            owner = future is None
            if owner:
                future = _futures.Future()
                self._entries[key] = future
                self.solves += 1
            else:
                self.hits += 1
        if owner:
            try:
                future.set_result(fn())
            except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
                future.set_exception(exc)
        return future.result(), not owner
