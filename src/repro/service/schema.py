"""The planner service's wire schema: ``PlanRequest`` / ``PlanResponse``.

A request is exactly the argument list of :func:`repro.core.solve.synthesize`
frozen into data; a response carries the result plus the serving metadata
callers need to reason about amortisation (was it a cache hit? coalesced
onto another request's in-flight solve? how long did serving take versus
solving?). Both round-trip through plain JSON dicts so they can cross
process boundaries (the solve pool) and land in the on-disk cache unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.demand import Demand
from repro.core.config import AStarConfig, TecclConfig
from repro.core.solve import Method, SynthesisResult
from repro.errors import ServiceError
from repro.obs.explain import ExplainRecord
from repro.topology.topology import Topology


@dataclass(frozen=True)
class PlanRequest:
    """One schedule-synthesis request, as data."""

    topology: Topology
    demand: Demand
    config: TecclConfig
    method: Method = Method.AUTO
    astar_config: AStarConfig | None = None
    minimize_epochs: bool = False
    #: free-form caller tag echoed in the response (batch bookkeeping);
    #: never part of the fingerprint.
    tag: str = ""

    def to_dict(self) -> dict:
        return {
            "topology": self.topology.to_dict(),
            "demand": self.demand.to_dict(),
            "config": self.config.to_dict(),
            "method": self.method.value,
            "astar_config": (None if self.astar_config is None
                             else self.astar_config.to_dict()),
            "minimize_epochs": self.minimize_epochs,
            "tag": self.tag,
        }

    @staticmethod
    def from_dict(data: dict) -> "PlanRequest":
        try:
            return PlanRequest(
                topology=Topology.from_dict(data["topology"]),
                demand=Demand.from_dict(data["demand"]),
                config=TecclConfig.from_dict(data["config"]),
                method=Method(data.get("method", Method.AUTO.value)),
                astar_config=(
                    None if data.get("astar_config") is None
                    else AStarConfig.from_dict(data["astar_config"])),
                minimize_epochs=bool(data.get("minimize_epochs", False)),
                tag=str(data.get("tag", "")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed plan request: {exc}") from exc


@dataclass
class PlanResponse:
    """One served plan: the result plus how it was served.

    Exactly one of ``result`` / ``error`` is set; a failed solve reports the
    error message instead of raising so ``plan_batch`` can keep going.
    """

    fingerprint: str
    result: SynthesisResult | None = None
    error: str | None = None
    #: served straight from the schedule cache (no solver involvement)
    cache_hit: bool = False
    #: piggybacked on another caller's identical in-flight solve
    coalesced: bool = False
    #: wall-clock seconds from plan() entry to response (serving latency;
    #: solver time lives in result.solve_time)
    serve_time: float = 0.0
    tag: str = ""
    #: post-solve conformance replay summary (a
    #: :meth:`repro.simulate.ConformanceReport.to_dict` document); only set
    #: when the planner runs with ``check_conformance=True``.
    conformance: dict | None = None
    #: plan provenance — where this schedule came from and what each stage
    #: cost (:class:`repro.obs.explain.ExplainRecord`); assembled by the
    #: planner on every serve, rendered by ``teccl explain``.
    explain: ExplainRecord | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def conformant(self) -> bool | None:
        """Whether the replay was clean (``None`` when no check ran)."""
        if self.conformance is None:
            return None
        return bool(self.conformance.get("ok"))

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "result": None if self.result is None else self.result.to_dict(),
            "error": self.error,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "serve_time": self.serve_time,
            "tag": self.tag,
            "conformance": self.conformance,
            "explain": (None if self.explain is None
                        else self.explain.to_dict()),
        }

    @staticmethod
    def from_dict(data: dict) -> "PlanResponse":
        try:
            return PlanResponse(
                fingerprint=str(data["fingerprint"]),
                result=(None if data.get("result") is None
                        else SynthesisResult.from_dict(data["result"])),
                error=(None if data.get("error") is None
                       else str(data["error"])),
                cache_hit=bool(data.get("cache_hit", False)),
                coalesced=bool(data.get("coalesced", False)),
                serve_time=float(data.get("serve_time", 0.0)),
                tag=str(data.get("tag", "")),
                conformance=data.get("conformance"),
                explain=(None if data.get("explain") is None
                         else ExplainRecord.from_dict(data["explain"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed plan response: {exc}") from exc


# ----------------------------------------------------------------------
# registry-state snapshots (the fleet WAL's compaction document)
# ----------------------------------------------------------------------

#: bump when the registry-state snapshot layout changes incompatibly
REGISTRY_STATE_VERSION = 1

#: required top-level fields and the types a reader may rely on
_REGISTRY_STATE_FIELDS: dict[str, type | tuple[type, ...]] = {
    "registry_state_version": int,
    "now": (int, float),
    "steps_completed": int,
    "entry_seq": int,
    "jobs": dict,
    "entries": list,
    "active": dict,
    "estimator": dict,
    "decisions": list,
}


def check_registry_state(doc: dict) -> dict:
    """Validate a registry-state snapshot document (round-trip contract).

    The fleet WAL writes this document on compaction and trusts it again
    on recovery; both directions funnel through this check so a snapshot
    that would not rehydrate is refused at *write* time, not discovered
    after the crash it was supposed to survive. Returns the document.
    """
    if not isinstance(doc, dict):
        raise ServiceError(
            f"registry state must be a dict, got {type(doc).__name__}")
    version = doc.get("registry_state_version")
    if version != REGISTRY_STATE_VERSION:
        raise ServiceError(
            f"registry state version {version!r} is not "
            f"{REGISTRY_STATE_VERSION} (stale snapshot?)")
    for key, expected in _REGISTRY_STATE_FIELDS.items():
        if key not in doc:
            raise ServiceError(f"registry state is missing {key!r}")
        if not isinstance(doc[key], expected) or isinstance(doc[key], bool):
            raise ServiceError(
                f"registry state field {key!r} has type "
                f"{type(doc[key]).__name__}")
    for job, seq in doc["active"].items():
        if not isinstance(job, str) or isinstance(seq, bool) \
                or not isinstance(seq, int):
            raise ServiceError(
                f"registry state active map entry {job!r}: {seq!r} is not "
                "job-name -> entry seq")
    return doc
