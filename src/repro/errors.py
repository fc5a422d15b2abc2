"""Exception hierarchy for the TE-CCL reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch package failures with a single ``except`` clause while
letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class TopologyError(ReproError):
    """The topology is malformed (bad link, unknown node, disconnected...)."""


class DemandError(ReproError):
    """The demand matrix is malformed or inconsistent with the topology."""


class ModelError(ReproError):
    """An optimization model was built or used incorrectly."""


class InfeasibleError(ReproError):
    """The optimization (or a heuristic) could not find a feasible solution."""

    def __init__(self, message: str, *, status: str | None = None):
        super().__init__(message)
        self.status = status


class SolveTimeoutError(ReproError):
    """A solve stopped at its time, iteration or node limit with no point
    to return. It ran out of budget; that says nothing about whether the
    instance is feasible, so it is deliberately not an
    :class:`InfeasibleError`."""


class ScheduleError(ReproError):
    """A schedule is invalid (capacity violated, chunk sent before arrival...)."""


class ExportError(ReproError):
    """A schedule could not be exported (e.g. to MSCCL XML)."""


class ServiceError(ReproError):
    """The planner service failed (timeout, uncacheable request, bad spec)."""


class FleetError(ReproError):
    """The fleet control plane failed (bad telemetry, estimator misuse...)."""


class ObservabilityError(ReproError):
    """The observability layer failed (bad sink, corrupt trace, bad metric)."""
