"""The adaptation daemon: estimator transitions → cost-gated replans.

This closes the paper's loop (§2, §5.4): the planner can *react* to
failures, congestion, and heterogeneous bandwidth instead of shipping one
fixed algorithm — but only if something watches the fabric and decides when
a re-solve pays. That something is the :class:`AdaptationController`:

1. poll telemetry, fold it into the :class:`~repro.fleet.FabricEstimator`;
2. on a health transition, *predict* what the live fabric does to each
   job's active schedule (a dead link breaks it; a degraded link stretches
   it by the worst capacity ratio along its used links);
3. gate replan-vs-keep on cost: the predicted finish-time regression,
   amortised over the iterations a plan serves, must outweigh the
   predicted re-solve cost (the prior solve time is the estimate);
4. route replans through the :class:`~repro.service.Planner` — one
   ``plan_batch`` per fabric event, so distinct jobs fan out across the
   solve pool and replicas share one solve through the fingerprint cache;
5. vet every adapted schedule through the conformance oracle *before*
   activation; a failed replay rolls back to the incumbent. The registry
   enforces the invariant: a non-conformant schedule can never activate.

The model of a "job" here is a recurring collective (one training step's
ALLREDUCE, say): adaptation replans *future* iterations; rescuing the
iteration in flight is :func:`repro.failures.repair_schedule`'s business.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import json
import threading
import time as _time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from repro.collectives.demand import Demand
from repro.core.config import TecclConfig
from repro.core.solve import Method, SynthesisResult
from repro.errors import FleetError, ServiceError
from repro.fleet.estimate import (FabricEstimator, LinkHealth,
                                  LinkTransition)
from repro.fleet.wal import Encoded, WriteAheadLog
from repro.obs import recorder as _flight
from repro.obs import trace as _obs
from repro.obs.alerts import Alert, AlertEngine, AlertRule
from repro.obs.metrics import CounterFields
from repro.fleet.telemetry import TelemetrySource
from repro.service.cache import make_envelope, open_envelope
from repro.service.fingerprint import canonical_json
from repro.service.planner import Planner
from repro.service.schema import (REGISTRY_STATE_VERSION, PlanRequest,
                                  check_registry_state)
from repro.topology.topology import Topology


@dataclass
class FleetJob:
    """One recurring collective the fleet keeps planned.

    Attributes:
        name: registry key; unique per controller.
        demand: the collective's demand matrix.
        config: synthesis knobs (chunk size, switch model, ...).
        method: formulation override (AUTO = the paper's selection rule).
        priority: relative weight for capacity shares (the orchestrator's
            admission uses it; the controller itself treats jobs equally).
    """

    name: str
    demand: Demand
    config: TecclConfig
    method: Method = Method.AUTO
    priority: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise FleetError("a fleet job needs a name")
        if self.priority <= 0:
            raise FleetError(f"job {self.name!r}: priority must be positive")

    def to_dict(self) -> dict:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        return {"name": self.name, "demand": self.demand.to_dict(),
                "config": self.config.to_dict(),
                "method": self.method.value, "priority": self.priority}

    @staticmethod
    def from_dict(data: dict) -> "FleetJob":
        try:
            return FleetJob(
                name=str(data["name"]),
                demand=Demand.from_dict(data["demand"]),
                config=TecclConfig.from_dict(data["config"]),
                method=Method(data.get("method", Method.AUTO.value)),
                priority=float(data.get("priority", 1.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise FleetError(f"malformed fleet job document: {exc}") from exc


@dataclass(frozen=True)
class CostGate:
    """Replan-vs-keep: is the predicted regression worth a re-solve?

    A plan serves ``amortize_iterations`` runs of its collective, so a
    finish-time regression of ``r`` seconds costs ``r × iterations``
    wall-clock before the next natural re-plan — replan when that exceeds
    the predicted solve cost. Regressions under ``min_regression``
    (relative) are ignored outright: re-fingerprinting the fleet for noise
    is how a control plane melts its own solver pool.
    """

    min_regression: float = 0.05
    amortize_iterations: float = 1000.0

    def __post_init__(self) -> None:
        if self.min_regression < 0:
            raise FleetError("min_regression must be non-negative")
        if self.amortize_iterations <= 0:
            raise FleetError("amortize_iterations must be positive")

    def should_replan(self, *, predicted: float, active: float,
                      solve_cost: float) -> bool:
        if predicted == float("inf"):
            return True  # the active schedule uses a dead link
        regression = predicted - active
        if regression <= self.min_regression * active:
            return False
        return regression * self.amortize_iterations >= solve_cost


def links_used_by(result: SynthesisResult,
                  declared: Topology) -> set[tuple[int, int]] | None:
    """Links a result's schedule occupies, in declared-fabric ids.

    ``None`` when the schedule lives in a transformed (hyper-edge) node
    space or references links outside the declared fabric — callers must
    then assume the whole fabric is in play.
    """
    used = result.schedule.links_used()
    if result.hyper is not None \
            or any(link not in declared.links for link in used):
        return None
    return used


def predicted_finish(result: SynthesisResult, declared: Topology,
                     live: Topology) -> float:
    """What the live fabric does to an existing schedule, without solving.

    ``inf`` when the schedule uses a link the live view dropped. Otherwise
    the finish time stretched by the worst declared→live capacity ratio
    over the links the schedule actually uses — exact for a schedule
    bottlenecked on the degraded link, conservative otherwise (β scales
    with 1/capacity; α is unchanged by degradation). Schedules in a
    transformed (hyper-edge) node space fall back to scanning the whole
    fabric, which is more conservative still.
    """
    used = links_used_by(result, declared)
    if used is None:
        used = set(declared.links)
    worst = 1.0
    for link in used:
        if link not in live.links:
            return float("inf")
        worst = min(worst,
                    live.links[link].capacity / declared.links[link].capacity)
    if worst <= 0:
        return float("inf")
    return result.finish_time / worst


class ScheduleStatus(enum.Enum):
    """Lifecycle of one schedule in the registry."""

    PENDING = "pending"
    ACTIVE = "active"
    ROLLED_BACK = "rolled_back"
    RETIRED = "retired"


@dataclass
class RegistryEntry:
    """One schedule the registry has seen, with its vetting verdict.

    ``fabric`` is the live view the schedule was planned against — the
    baseline for later regression predictions (predicting against the
    declared fabric would double-count degradation the plan already paid
    for).
    """

    job: str
    result: SynthesisResult
    status: ScheduleStatus
    time: float
    conformance_ok: bool | None = None
    note: str = ""
    fabric: Topology | None = None
    #: registry-assigned identity; WAL lifecycle records reference it
    seq: int = 0

    def to_dict(self) -> dict:
        """Status-display summary (lossy by design; the WAL uses
        :meth:`to_wire`, which round-trips the full entry)."""
        return {"job": self.job, "status": self.status.value,
                "time": self.time, "conformance_ok": self.conformance_ok,
                "finish_time": self.result.finish_time,
                "solve_time": self.result.solve_time,
                "method": self.result.method.value, "note": self.note}

    def to_wire(self) -> dict:
        """Full-fidelity document (round-trips via :meth:`from_wire`).

        The schedule payload rides inside the disk cache's versioned
        envelope, so a WAL snapshot written by an older package version
        is invalidated by the same rule as a stale cache entry. The
        payload is ``result.to_dict()``, decoded from the result's
        canonical text (:func:`_encoded`) rather than rebuilt.
        """
        return self._wire(json.loads(_encoded(self.result).text))

    def _wire(self, payload: dict | Encoded) -> dict:
        """:meth:`to_wire` around ``payload``: the schedule document, or
        its :class:`~repro.fleet.wal.Encoded` text for the WAL to
        splice."""
        return {
            "seq": self.seq,
            "job": self.job,
            "status": self.status.value,
            "time": self.time,
            "conformance_ok": self.conformance_ok,
            "note": self.note,
            "result": make_envelope(_encoded(self.result).digest, payload,
                                    {"kind": "fleet-registry-entry"}),
            "fabric": (None if self.fabric is None
                       else self.fabric.to_dict()),
        }

    @staticmethod
    def from_wire(data: dict) -> "RegistryEntry":
        try:
            payload = open_envelope(data["result"])
            if payload is None:
                raise FleetError(
                    f"registry entry for job {data.get('job')!r}: schedule "
                    "envelope is stale or malformed (version or package "
                    "mismatch)")
            return RegistryEntry(
                job=str(data["job"]),
                result=SynthesisResult.from_dict(payload),
                status=ScheduleStatus(data["status"]),
                time=float(data["time"]),
                conformance_ok=(None if data.get("conformance_ok") is None
                                else bool(data["conformance_ok"])),
                note=str(data.get("note", "")),
                fabric=(None if data.get("fabric") is None
                        else Topology.from_dict(data["fabric"])),
                seq=int(data.get("seq", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise FleetError(
                f"malformed registry entry document: {exc}") from exc


def _encoded(result: SynthesisResult) -> Encoded:
    """``result``'s canonical text and its SHA-256, built on first use and
    kept on the result (:attr:`SynthesisResult.encoded`).

    One result is often proposed many times: replicas of a job share one
    solve, and heal or recovery probes hit the cache on results proposed
    at admission. Each of those records carries the same text, and the
    envelope fingerprint is its digest — ``fingerprint_canonical`` of the
    payload. A result the planner archived encodes the document it was
    archived as (:attr:`SynthesisResult.payload`).
    """
    if result.encoded is None:
        text = canonical_json(result.payload if result.payload is not None
                              else result.to_dict())
        result.encoded = Encoded(
            text, hashlib.sha256(text.encode("utf-8")).hexdigest())
    return result.encoded


class ScheduleRegistry:
    """Active/pending/rollback bookkeeping with one hard invariant.

    Every schedule enters as PENDING via :meth:`propose`; it becomes
    ACTIVE only through :meth:`activate`, which *refuses* entries whose
    conformance verdict is not an explicit pass — the acceptance
    criterion "zero non-conformant schedules ever activate" is enforced
    here, in one place, rather than by every caller remembering to check.
    """

    def __init__(self, journal=None) -> None:
        self._active: dict[str, RegistryEntry] = {}
        # bounded: a long-running daemon proposes schedules indefinitely;
        # active entries stay reachable through _active regardless
        self.history: deque[RegistryEntry] = deque(maxlen=1000)
        self._lock = threading.Lock()
        self._seq = 0
        # write-ahead hook: called as journal(kind, data) *before* the
        # matching state mutation; a raise (a fenced WAL) aborts the
        # transition, so a fenced daemon can never activate anything
        self._journal = journal

    def _log(self, kind: str, data: dict) -> None:
        if self._journal is not None:
            self._journal(kind, data)

    def propose(self, job: str, result: SynthesisResult, time: float,
                fabric: Topology | None = None) -> RegistryEntry:
        with self._lock:
            self._seq += 1
            return self._enter(RegistryEntry(
                job=job, result=result, status=ScheduleStatus.PENDING,
                time=time, fabric=fabric, seq=self._seq))

    def _enter(self, entry: RegistryEntry) -> RegistryEntry:
        """:meth:`propose`'s bookkeeping (the caller holds the lock);
        recovery enters each logged proposal through it as logged."""
        if self._journal is not None:
            self._journal("propose", entry._wire(_encoded(entry.result)))
        self._seq = max(self._seq, entry.seq)
        self.history.append(entry)
        return entry

    def activate(self, entry: RegistryEntry) -> RegistryEntry:
        if entry.conformance_ok is not True:
            raise FleetError(
                f"refusing to activate schedule for job {entry.job!r}: "
                f"conformance verdict is {entry.conformance_ok!r}, not a "
                "pass")
        with self._lock:
            self._log("activate", {"job": entry.job, "seq": entry.seq,
                                   "conformance_ok": True})
            incumbent = self._active.get(entry.job)
            if incumbent is not None:
                incumbent.status = ScheduleStatus.RETIRED
            entry.status = ScheduleStatus.ACTIVE
            self._active[entry.job] = entry
        return entry

    def rollback(self, entry: RegistryEntry, reason: str) -> RegistryEntry:
        with self._lock:
            self._log("rollback", {"job": entry.job, "seq": entry.seq,
                                   "reason": reason})
            entry.status = ScheduleStatus.ROLLED_BACK
            entry.conformance_ok = False  # only a failed replay rolls back
            entry.note = reason
            # the live path rolls back only PENDING entries; recovery also
            # rolls back an incumbent its re-vet refused
            if self._active.get(entry.job) is entry:
                del self._active[entry.job]
        return entry

    def retire(self, job: str) -> None:
        """Drop a job's active schedule (the job left the fleet)."""
        with self._lock:
            entry = self._active.get(job)
            if entry is not None:
                self._log("retire", {"job": job, "seq": entry.seq})
                del self._active[job]
                entry.status = ScheduleStatus.RETIRED

    def active(self, job: str) -> RegistryEntry | None:
        with self._lock:
            return self._active.get(job)

    def active_jobs(self) -> list[str]:
        with self._lock:
            return sorted(self._active)

    def counts(self) -> dict[str, int]:
        """Status counts over the retained history window."""
        with self._lock:
            counts = {status.value: 0 for status in ScheduleStatus}
            for entry in self.history:
                counts[entry.status.value] += 1
        return counts

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "active": {job: entry.to_dict()
                           for job, entry in sorted(self._active.items())},
                "history": [entry.to_dict() for entry in self.history],
            }


@dataclass(frozen=True)
class AdaptationDecision:
    """One job's outcome for one fabric event (what ``step`` returns)."""

    job: str
    time: float
    action: str  # "replan" | "keep" | "rollback" | "failed"
    reason: str
    predicted: float | None = None
    active_finish: float | None = None
    new_finish: float | None = None
    solve_time: float | None = None

    def __str__(self) -> str:
        parts = [f"[t={self.time:g}] {self.job}: {self.action}"]
        if self.action == "replan" and self.new_finish is not None:
            parts.append(f"finish {self.active_finish:.3g} -> "
                         f"{self.new_finish:.3g}s")
        parts.append(f"({self.reason})")
        return " ".join(parts)

    def to_dict(self) -> dict:
        """JSON-ready representation (round-trips via :meth:`from_dict`).

        ``predicted`` may legitimately be ``inf`` (a dead used link);
        it is encoded as ``None``-safe JSON via Python's non-strict
        ``Infinity`` literal, which :func:`json.loads` parses back.
        """
        return {"job": self.job, "time": self.time, "action": self.action,
                "reason": self.reason, "predicted": self.predicted,
                "active_finish": self.active_finish,
                "new_finish": self.new_finish,
                "solve_time": self.solve_time}

    @staticmethod
    def from_dict(data: dict) -> "AdaptationDecision":
        def _opt(key):
            return None if data.get(key) is None else float(data[key])

        try:
            return AdaptationDecision(
                job=str(data["job"]), time=float(data["time"]),
                action=str(data["action"]), reason=str(data["reason"]),
                predicted=_opt("predicted"),
                active_finish=_opt("active_finish"),
                new_finish=_opt("new_finish"),
                solve_time=_opt("solve_time"))
        except (KeyError, TypeError, ValueError) as exc:
            raise FleetError(
                f"malformed adaptation decision document: {exc}") from exc


class FleetStats(CounterFields):
    """The controller's integer counters, in the ``stats()`` dict order."""

    _FIELDS = ("polls", "samples", "transitions", "replans", "kept",
               "rollbacks", "failed", "errors")
    _PREFIX = "fleet"
    _DESCRIPTION = "fleet {words} (cumulative)"
    __slots__ = ("registry", "_counters")


class AdaptationController:
    """The online adaptation daemon over one planner and one fabric.

    Args:
        topology: the declared fabric.
        source: the telemetry stream to poll.
        planner: the serving layer replans route through.
        estimator: a pre-configured estimator (default: fresh, default
            thresholds).
        gate: the replan-vs-keep cost gate.
        wal: a :class:`~repro.fleet.wal.WriteAheadLog`. Every registry
            lifecycle transition, decision, and estimator cool-down clock
            is durably appended *before* it is applied; :meth:`recover`
            rehydrates from it after a crash. ``None`` keeps the control
            plane in-memory (the pre-WAL behaviour).
        compact_every: fold the WAL into a snapshot once this many
            records accumulate since the last compaction.
        alert_rules: SLO rules for the in-process alert engine
            (default: :func:`repro.obs.alerts.builtin_rules`). Evaluated
            at the tail of every step over the merged planner +
            controller metrics snapshot; firing alerts surface in
            :meth:`status` and newly-firing ones trigger a
            flight-recorder dump.
    """

    def __init__(self, topology: Topology, source: TelemetrySource,
                 planner: Planner, *,
                 estimator: FabricEstimator | None = None,
                 gate: CostGate | None = None,
                 wal: WriteAheadLog | None = None,
                 compact_every: int = 256,
                 alert_rules: list[AlertRule] | None = None) -> None:
        self.topology = topology
        self.source = source
        self.planner = planner
        self.estimator = estimator if estimator is not None \
            else FabricEstimator(topology)
        if self.estimator.topology is not topology:
            raise FleetError(
                "estimator and controller must share one declared fabric")
        self.gate = gate if gate is not None else CostGate()
        if compact_every < 1:
            raise FleetError("compact_every must be at least 1")
        self.wal = wal
        self.compact_every = compact_every
        self._last_compact_records = 0
        #: recovery provenance (``None`` until :meth:`recover` ran)
        self.recovery: dict | None = None
        self.registry = ScheduleRegistry(
            journal=None if wal is None else self._journal)
        self.jobs: dict[str, FleetJob] = {}
        # jobs is mutated by admission/retirement threads while the daemon
        # thread iterates it; mutate and snapshot under this lock.
        self._jobs_lock = threading.Lock()
        #: recent decisions (bounded: the daemon emits them indefinitely)
        self.decisions: deque[AdaptationDecision] = deque(maxlen=500)
        self.now = 0.0
        # Stats live on a per-controller metrics registry (``metrics`` —
        # ``registry`` is the schedule registry); stats() flattens it to
        # the keys ``teccl fleet status`` and the ledger's fleet-replan read
        self._stats = FleetStats()
        self.metrics = self._stats.registry
        self._solve_seconds = self.metrics.counter(
            "fleet_adaptation_solve_seconds_total",
            "wall-clock spent in adaptation replans (cumulative)")
        # durability counters live on the metrics registry only, outside
        # the stats() key set
        self._wal_records = self.metrics.counter(
            "fleet_wal_records_total",
            "records durably appended to the write-ahead log")
        self._recoveries = self.metrics.counter(
            "fleet_recoveries_total",
            "successful crash recoveries from the WAL")
        self._recovery_dropped = self.metrics.counter(
            "fleet_recovery_dropped_total",
            "recovered schedules dropped (failed conformance or stale)")
        self._wal_append_latency = self.metrics.histogram(
            "fleet_wal_append_seconds",
            "durable WAL append latency per record")
        # the SLO alert engine (repro.obs.alerts): evaluated at the tail
        # of every step over the merged planner+controller snapshot
        self.alert_engine = AlertEngine(alert_rules)
        self._alerts: list[Alert] = []
        #: last exception the daemon loop swallowed (None = healthy)
        self.last_error: str | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # serialises control-plane operations (step / admission /
        # retirement / recovery): a sync step() can never interleave with
        # a daemon tick, and stop() joining the thread implies the last
        # step ran to completion
        self._op_lock = threading.Lock()
        self._step_index = 0

    # ------------------------------------------------------------------
    # the write-ahead log
    # ------------------------------------------------------------------
    def _journal(self, kind: str, data: dict | None = None) -> None:
        """Durably record one transition before it happens (write-ahead).

        Raises when the WAL is fenced — the caller's transition is then
        aborted, which is what makes takeover safe: a fenced generation
        cannot persist, and therefore cannot activate, anything.
        """
        if self.wal is None:
            return
        start = _time.perf_counter()
        self.wal.append(kind, data, now=self.now)
        self._wal_append_latency.observe(_time.perf_counter() - start)
        self._wal_records.inc()

    @contextmanager
    def _txn(self, op: str, **ident):
        """One write-ahead transaction: ``begin`` → body → ``commit``.

        A body that raises gets a best-effort ``abort`` marker and the
        exception back; the caller keeps only its own in-memory
        compensation. Without the marker the operation's records would sit
        in front of the next successful commit and recovery would replay
        them as if they had happened (a ghost admission, a half-applied
        step). The abort append may itself fail — a fenced WAL is one of
        the very reasons an operation aborts — which is tolerable:
        recovery also discards any ``begin`` that is never matched by a
        ``commit``.
        """
        marker = {"op": op, **ident}
        try:
            self._journal("begin", marker)
            yield
            self._journal("commit", marker)
        except BaseException:
            try:
                self._journal("abort", {key: marker[key]
                                        for key in ("op", "job")
                                        if key in marker})
            except (FleetError, OSError):
                pass
            raise

    def _maybe_compact(self) -> None:
        if self.wal is None:
            return
        grown = self.wal.records_written - self._last_compact_records
        if grown < self.compact_every:
            return
        with _obs.span("fleet.wal_compact", records=grown):
            self.wal.compact(self.registry_state())
        self._last_compact_records = self.wal.records_written

    def registry_state(self) -> dict:
        """The compaction snapshot: full control-plane state, as data.

        Shape-checked by :func:`repro.service.schema.check_registry_state`
        (the registry-state wire schema), so an unparseable snapshot is
        refused at write time rather than at the recovery that needed it.
        """
        with self.registry._lock:
            entries = {entry.seq: entry for entry in (
                *self.registry.history, *self.registry._active.values())}
            active = {job: entry.seq
                      for job, entry in self.registry._active.items()}
            seq = self.registry._seq
        estimator = {
            f"{src}->{dst}": {
                "health": est.health.value, "ewma": est.ewma,
                "last_transition": est.last_transition,
                "samples": est.samples}
            for (src, dst), est in sorted(self.estimator._links.items())}
        state = {
            "registry_state_version": REGISTRY_STATE_VERSION,
            "now": self.now,
            "steps_completed": self._step_index,
            "entry_seq": seq,
            "jobs": {name: job.to_dict()
                     for name, job in sorted(self._jobs_snapshot().items())},
            "entries": [entries[s].to_wire() for s in sorted(entries)],
            "active": active,
            "estimator": estimator,
            "decisions": [d.to_dict() for d in self.decisions],
        }
        return check_registry_state(state)

    # ------------------------------------------------------------------
    # jobs
    # ------------------------------------------------------------------
    def _view(self, job: FleetJob, live: Topology) -> Topology:
        """The fabric ``job`` plans on (the orchestrator's share policy
        overrides this)."""
        return live

    def _request(self, job: FleetJob, live: Topology) -> PlanRequest:
        return PlanRequest(topology=self._view(job, live),
                           demand=job.demand, config=job.config,
                           method=job.method, tag=job.name)

    def add_job(self, job: FleetJob) -> RegistryEntry:
        """Admit a job: plan it on the current live fabric and activate.

        The initial plan is vetted exactly like an adapted one — the
        registry's invariant holds from the first schedule, not just from
        the first adaptation. With a WAL the whole admission is one
        transaction: a crash mid-admission leaves no committed trace, and
        recovery sees a fleet the job never joined.
        """
        with self._op_lock:
            with self._jobs_lock:
                if job.name in self.jobs:
                    raise FleetError(f"job {job.name!r} already admitted")
                self.jobs[job.name] = job
            try:
                with self._txn("admit", job=job.name):
                    self._journal("job_admit", job.to_dict())
                    activated = self._plan_fresh(job, verb="admit")
            except BaseException:
                # a failed admission must not leave a ghost job (it would
                # block re-admission and distort the orchestrator's shares
                # forever) — neither in memory (the pop) nor in the WAL
                # (the abort marker keeps recovery from replaying the
                # admission once a later operation commits)
                with self._jobs_lock:
                    self.jobs.pop(job.name, None)
                raise
            self._maybe_compact()
            return activated

    def _plan_fresh(self, job: FleetJob, *, verb: str) -> RegistryEntry:
        """Plan ``job`` cold on the live fabric, vet, and activate.

        The shared tail of admission and :meth:`plan_missing`; callers
        hold ``_op_lock`` and bracket this in a WAL transaction.
        """
        live = self.estimator.live_topology()
        response = self.planner.plan(self._request(job, live))
        entry = self._propose_vetted(
            job.name, response.result, live,
            note="initial plan failed conformance",
            reason="initial-conformance")
        if entry.conformance_ok is not True:
            raise FleetError(
                f"initial plan for job {job.name!r} failed "
                f"conformance replay; refusing to {verb}")
        return self.registry.activate(entry)

    def plan_missing(self, names: list[str] | None = None,
                     ) -> dict[str, RegistryEntry]:
        """Fresh-plan admitted jobs that have no active schedule.

        Recovery can leave a job admitted but scheduleless: its
        recovered incumbent failed conformance re-vetting and was
        dropped. Nothing in the adaptation loop replans such a job —
        the cost gate and :meth:`replan_all` both iterate incumbents —
        so this is the path back to a schedule: each one is planned cold
        on the current live fabric, vetted, and activated, journaled as
        its own transaction. ``names`` restricts the sweep (default:
        every admitted job without an active entry); jobs that already
        have an incumbent are skipped, so the sweep is idempotent.
        """
        with self._op_lock:
            snapshot = self._jobs_snapshot()
            planned: dict[str, RegistryEntry] = {}
            for name in sorted(snapshot if names is None else names):
                job = snapshot.get(name)
                if job is None or self.registry.active(name) is not None:
                    continue
                with self._txn("plan", job=name):
                    planned[name] = self._plan_fresh(job, verb="activate")
            self._maybe_compact()
            return planned

    def remove_job(self, name: str) -> None:
        with self._op_lock:
            with self._jobs_lock:
                job = self.jobs.get(name)
                if job is None:
                    raise FleetError(f"no job {name!r}")
            try:
                # write-ahead, like add_job: journal the removal *before*
                # mutating memory, so a refused append (a fenced WAL)
                # leaves both the in-memory and the durable fleet with
                # the job still present
                with self._txn("remove", job=name):
                    self._journal("job_remove", {"job": name})
                    with self._jobs_lock:
                        self.jobs.pop(name, None)
                    self.registry.retire(name)
            except BaseException:
                with self._jobs_lock:
                    self.jobs.setdefault(name, job)
                raise

    def _jobs_snapshot(self) -> dict[str, FleetJob]:
        with self._jobs_lock:
            return dict(self.jobs)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def step(self) -> list[AdaptationDecision]:
        """One daemon tick: poll → estimate → (maybe) adapt.

        With a WAL, a step is one transaction (``begin`` … ``commit``):
        recovery discards an interrupted step wholesale and the restarted
        daemon re-executes it from committed state, so a crash can never
        half-apply a tick.
        """
        with self._op_lock, _obs.span("fleet.step") as step_sp:
            index = self._step_index
            # the daemon loop swallows step errors and keeps ticking;
            # without the transaction's abort marker this step's records
            # would sit in front of the next tick's commit and recovery
            # would replay half a step
            with self._txn("step", index=index):
                with _obs.span("fleet.poll"):
                    samples = self.source.poll()
                self._stats.inc("polls")
                self._stats.inc("samples", len(samples))
                if samples:
                    self.now = max(self.now, max(s.time for s in samples))
                with _obs.span("fleet.estimate", samples=len(samples)):
                    transitions = self.estimator.observe_all(samples)
                step_sp.set_attr(samples=len(samples),
                                 transitions=len(transitions))
                decisions: list[AdaptationDecision] = []
                if transitions:
                    self._stats.inc("transitions", len(transitions))
                    for transition in transitions:
                        self._journal("transition", {
                            "link": list(transition.link),
                            "time": transition.time,
                            "old": transition.old.value,
                            "new": transition.new.value,
                            "factor": transition.factor})
                    decisions = self._record(self.adapt(transitions))
            self._step_index = index + 1
            self._maybe_compact()
            self.evaluate_alerts()
            return decisions

    def _record(self, decisions: list[AdaptationDecision],
                ) -> list[AdaptationDecision]:
        """Keep and journal a transaction's decisions (returns them)."""
        self.decisions.extend(decisions)
        for decision in decisions:
            self._journal("decision", decision.to_dict())
        return decisions

    def evaluate_alerts(self) -> list[Alert]:
        """One alert-engine pass over the merged metrics snapshot.

        Runs at the tail of every step; callable directly for status
        tooling. An alert transitioning from quiet to firing triggers a
        flight-recorder dump (once per transition, not per poll) — the
        point of the recorder is that the evidence is already in the ring
        when the alert notices the symptom.
        """
        firing = self.alert_engine.evaluate(self.alert_snapshot())
        self._alerts = firing
        if self.alert_engine.newly_fired:
            _obs.event("fleet.alerts_fired",
                       alerts=self.alert_engine.newly_fired)
            _flight.auto_dump("alert")
        return firing

    def alert_snapshot(self) -> dict:
        """Controller metrics merged over the planner's alert snapshot."""
        return {**self.planner.alert_snapshot(), **self.metrics.snapshot()}

    def adapt(self, transitions: list[LinkTransition],
              ) -> list[AdaptationDecision]:
        """React to fabric transitions: gate each job, fan out replans.

        Regressions (a link got worse) replan the jobs whose schedules the
        change actually hurts, gated on amortised cost. Recoveries (a link
        got better) *speculatively* replan every job — an improved
        fabric cannot be exploited by a schedule that was planned to avoid
        the sick link — but the fresh schedule only activates if it
        actually beats the incumbent, so recovery can never cause churn.
        """
        live = self.estimator.live_topology()
        rank = {LinkHealth.HEALTHY: 0, LinkHealth.DEGRADED: 1,
                LinkHealth.DOWN: 2}
        worsened = {t.link for t in transitions
                    if rank[t.new] > rank[t.old]}
        recovered = any(rank[t.new] < rank[t.old] for t in transitions)
        to_replan: list[tuple[FleetJob, RegistryEntry, float, bool]] = []
        decisions: list[AdaptationDecision] = []
        jobs = self._jobs_snapshot()
        with _obs.span("fleet.cost_gate", jobs=len(jobs),
                       transitions=len(transitions)) as gate_sp:
            self._gate_jobs(jobs, live, worsened, recovered,
                            to_replan, decisions)
            gate_sp.set_attr(replans=len(to_replan))
        decisions.extend(self._replan(to_replan, live))
        return decisions

    def _gate_jobs(self, jobs: dict[str, FleetJob], live: Topology,
                   worsened: set, recovered: bool,
                   to_replan: list, decisions: list) -> None:
        """Run the cost gate over every active job (fills the two lists)."""
        for name in sorted(jobs):
            job = jobs[name]
            entry = self.registry.active(name)
            if entry is None:
                continue
            # Baseline: the fabric the incumbent was planned on. Against
            # the declared fabric a schedule that already paid for a
            # degradation would be charged for it again on every later
            # event, inflating regressions and disabling the cost gate.
            baseline = entry.fabric if entry.fabric is not None \
                else self.topology
            predicted = predicted_finish(entry.result, baseline, live)
            active = entry.result.finish_time
            hurt = predicted == float("inf") or self._uses(entry, worsened)
            if hurt and self.gate.should_replan(
                    predicted=predicted, active=active,
                    solve_cost=entry.result.solve_time):
                to_replan.append((job, entry, predicted, False))
                continue
            if recovered:
                to_replan.append((job, entry, predicted, True))
                continue
            self._stats.inc("kept")
            decisions.append(AdaptationDecision(
                job=name, time=self.now, action="keep",
                reason=("cost gate: regression below the replan bar"
                        if hurt
                        else "schedule does not use the changed links"),
                predicted=predicted, active_finish=active))

    def _uses(self, entry: RegistryEntry, changed: set) -> bool:
        used = links_used_by(entry.result, self.topology)
        if used is None:
            return True  # transformed node space: assume affected
        return bool(used & changed)

    def _replan(self, batch: list[tuple],
                live: Topology) -> list[AdaptationDecision]:
        """Replan a batch of ``(job, incumbent, predicted finish,
        speculative)`` tuples through the planner's solve pool.

        A ``speculative`` replan (recovery probing) only activates when it
        strictly improves on the incumbent's finish; a mandatory one
        (regression) activates any conformant result.
        """
        if not batch:
            return []
        requests = [self._request(job, live) for job, _, _, _ in batch]
        with _obs.span("fleet.replan", jobs=len(batch)):
            responses = self.planner.plan_batch(requests)
        decisions = []
        for (job, prior, pred, probe), response in zip(batch, responses):
            # every outcome below is one decision about this job against
            # this incumbent; only action, reason and the new result vary
            decide = partial(AdaptationDecision, job=job.name, time=self.now,
                             predicted=pred,
                             active_finish=prior.result.finish_time)
            if not response.ok:
                self._stats.inc("failed")
                decisions.append(decide(
                    action="failed",
                    reason=f"replan failed: {response.error}"))
                continue
            result = response.result
            decide = partial(decide, new_finish=result.finish_time,
                             solve_time=result.solve_time)
            self._solve_seconds.inc(result.solve_time)
            if probe and result.finish_time >= prior.result.finish_time:
                self._stats.inc("kept")
                decisions.append(decide(
                    action="keep",
                    reason="recovery probe did not beat the incumbent"))
                continue
            entry = self._propose_vetted(
                job.name, result, live,
                note="adapted schedule failed conformance replay",
                reason="conformance")
            if entry.conformance_ok is not True:
                decisions.append(decide(
                    action="rollback",
                    reason="adapted schedule failed conformance replay; "
                           "incumbent stays active"))
                continue
            self.registry.activate(entry)
            _obs.event("fleet.activate", job=job.name,
                       finish_time=result.finish_time)
            self._stats.inc("replans")
            decisions.append(decide(
                action="replan",
                reason=("recovery probe beat the incumbent" if probe
                        else "replan on the live fabric")))
        return decisions

    def replan_all(self, reason: str,
                   names: list[str] | None = None,
                   ) -> list[AdaptationDecision]:
        """Re-plan jobs on the current live view (admission changes).

        ``names`` restricts the batch (default: every job with an active
        schedule); the replans fan out through the solve pool exactly
        like degradation-driven ones.
        """
        with self._op_lock:
            with self._txn("replan_all", reason=reason):
                snapshot = self._jobs_snapshot()
                batch = []
                for name in sorted(snapshot if names is None else names):
                    entry = self.registry.active(name)
                    if entry is None or name not in snapshot:
                        continue
                    batch.append((snapshot[name], entry,
                                  entry.result.finish_time, False))
                decisions = self._record(self._replan(
                    batch, self.estimator.live_topology()))
            self._maybe_compact()
            return decisions

    def _propose_vetted(self, job: str, result: SynthesisResult,
                        live: Topology, *, note: str,
                        reason: str) -> RegistryEntry:
        """Propose ``result`` and vet it (the activation gate): a failed
        replay is rolled back, counted, evented and flight-dumped here;
        the caller decides what a refusal means for its operation."""
        entry = self.registry.propose(job, result, self.now, fabric=live)
        entry.conformance_ok = self._vet(result)
        if entry.conformance_ok is not True:
            self.registry.rollback(entry, note)
            self._stats.inc("rollbacks")
            _obs.event("fleet.rollback", job=job, seq=entry.seq,
                       reason=reason)
            _flight.auto_dump("fleet-rollback")
        return entry

    def _vet(self, result: SynthesisResult) -> bool:
        """Conformance-replay one result (the activation gate)."""
        from repro.simulate import check_result

        with _obs.span("fleet.vet") as sp:
            ok = bool(check_result(result).ok)
            sp.set_attr(ok=ok)
            return ok

    # ------------------------------------------------------------------
    # daemon mode
    # ------------------------------------------------------------------
    def start(self, interval: float = 1.0) -> None:
        """Run ``step`` on a daemon thread every ``interval`` seconds."""
        if self._thread is not None:
            raise FleetError("controller daemon already running")
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, args=(interval,),
                                        name="teccl-fleet", daemon=True)
        self._thread.start()

    def _loop(self, interval: float) -> None:
        # Event.wait, never time.sleep: stop() setting the event wakes the
        # loop immediately instead of burning the rest of the interval.
        while not self._stop.wait(interval):
            if self.wal is not None and self.wal.fenced():
                # A newer generation took the lease. Yield gracefully: the
                # fence is only checked *between* steps, so an in-flight
                # step always finishes — and had it tried to activate
                # after the takeover, the WAL append itself would have
                # refused (write-ahead: no record, no activation).
                self.last_error = (
                    f"fenced: generation {self.wal.generation} lost the "
                    "lease; daemon yielded")
                break
            try:
                self.step()
            except Exception as exc:  # noqa: BLE001 - daemon must survive
                # A dead daemon thread is worse than a skipped tick: record
                # the error where stats()/status() surface it and keep
                # polling (the next tick may see a healed fabric).
                self.last_error = f"{type(exc).__name__}: {exc}"
                self._stats.inc("errors")

    def stop(self) -> None:
        """Stop the daemon thread.

        Returns promptly — the loop waits on an :class:`threading.Event`,
        so setting it wakes a sleeping loop immediately rather than after
        the rest of the interval — and never interleaves with a
        half-finished step: ``join`` only returns once the loop exited,
        and any in-flight ``step`` holds ``_op_lock`` until it completes.
        """
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> dict:
        """Rehydrate the control plane from the WAL; returns provenance.

        Recovery is replay: the compaction snapshot (if any), then every
        *committed* record in log order, goes through the transitions the
        live daemon runs (:meth:`_replay`), journal off — the log is the
        source; aborted or unfinished operations are the resumed daemon's
        to re-execute. Every recovered incumbent is then re-vetted by the
        conformance oracle, and a refused one is rolled back, counted and
        dropped. Estimator cool-down clocks resume where they stood, so a
        flap that straddles the crash still yields at most one transition
        per window. A malformed committed record raises
        :class:`~repro.errors.FleetError` naming its seq and kind, and
        leaves the controller fresh.

        Must run on a fresh controller (no jobs admitted, no steps
        taken); call it right after construction, before ``start()``.
        """
        if self.wal is None:
            raise FleetError("recover() needs a WAL "
                             "(AdaptationController(wal=...))")
        with self._op_lock, _obs.span("fleet.recover") as sp:
            if self._jobs_snapshot() or self._step_index:
                raise FleetError(
                    "recover() must run on a fresh controller, before any "
                    "admission or step")
            wal_state = self.wal.load()
            links, now = copy.deepcopy(self.estimator._links), self.now
            self.registry = ScheduleRegistry()  # no journal while replaying
            try:
                dropped = self._replay_log(wal_state)
            except BaseException:
                self.registry = ScheduleRegistry(journal=self._journal)
                self.jobs, self.estimator._links = {}, links
                self.decisions.clear()
                self.now, self._step_index = now, 0
                raise
            self.registry._journal = self._journal
            recovered = len(self.registry.active_jobs())
            self._recoveries.inc()
            self._recovery_dropped.inc(len(dropped))
            self.recovery = {
                "recovered": True,
                "generation": self.wal.generation,
                "snapshot": wal_state.snapshot is not None,
                "records_replayed": len(wal_state.records),
                "records_discarded": len(wal_state.uncommitted),
                "torn_bytes": wal_state.torn_bytes,
                "steps_completed": self._step_index,
                "jobs": sorted(self.jobs),
                "entries_recovered": recovered,
                "entries_dropped": dropped,
            }
            sp.set_attr(jobs=len(self.jobs), recovered=recovered,
                        dropped=len(dropped))
            # fold everything into a fresh snapshot: replaying the same
            # log twice must not exist as a failure mode
            self.wal.compact(self.registry_state())
            self._last_compact_records = self.wal.records_written
            return self.recovery

    def _replay_log(self, wal_state) -> list[dict]:
        """Replay the snapshot and committed records, then re-vet every
        incumbent; returns the dropped ones."""
        entries: dict[int, RegistryEntry] = {}  # every proposal, by seq
        stale: dict[str, int] = {}  # job -> unreadable incumbent's seq
        where = "the snapshot"
        try:
            snapshot = wal_state.snapshot
            if snapshot is not None:
                check_registry_state(snapshot)
                # the snapshot, as the records it folded
                for doc in snapshot["jobs"].values():
                    self._replay("job_admit", doc, entries, stale)
                for doc in snapshot["entries"]:
                    self._replay("propose", doc, entries, stale)
                for job, seq in snapshot["active"].items():
                    self._replay("activate", {"job": job, "seq": seq},
                                 entries, stale)
                for doc in snapshot["decisions"]:
                    self._replay("decision", doc, entries, stale)
                for key, state in snapshot["estimator"].items():
                    src, _, dst = key.partition("->")
                    self.estimator.restore(
                        (int(src), int(dst)),
                        **{**state, "health": LinkHealth(state["health"])})
                self.now = float(snapshot["now"])
                self._step_index = int(snapshot["steps_completed"])
                self.registry._seq = max(self.registry._seq,
                                         int(snapshot["entry_seq"]))
            for record in wal_state.records:
                where = (f"committed record seq {record.get('seq')} "
                         f"({record.get('kind')})")
                if "now" in record:
                    self.now = max(self.now, float(record["now"]))
                self._replay(record.get("kind"), record.get("data", {}),
                             entries, stale)
        except (AttributeError, KeyError, TypeError, ValueError,
                FleetError, ServiceError) as exc:
            raise FleetError(f"cannot recover: {where} is malformed: "
                             f"{type(exc).__name__}: {exc}") from exc
        dropped = [{"job": job, "seq": seq,
                    "reason": "stale schedule envelope"}
                   for job, seq in stale.items()]
        for job in self.registry.active_jobs():
            entry = self.registry.active(job)
            # an explicit re-vet *now*, not trust in the logged verdict:
            # solver or oracle semantics may have moved under it
            if not self._vet(entry.result):
                self.registry.rollback(
                    entry, "failed conformance replay on recovery")
                dropped.append({"job": job, "seq": entry.seq,
                                "reason": "failed conformance replay"})
                _obs.event("fleet.recovery_drop", job=job, seq=entry.seq)
                _flight.auto_dump("recovery-drop")
        return dropped

    def _replay(self, kind: str, data: dict,
                entries: dict[int, RegistryEntry],
                stale: dict[str, int]) -> None:
        """Apply one committed record through the live transitions.

        ``entries`` holds every recovered proposal by seq. One whose
        schedule envelope is stale (another package or cache-format
        version) does not survive; ``stale`` maps a job whose incumbent it
        was to its seq, and recovery reports the job dropped.
        """
        if kind == "job_admit":
            job = FleetJob.from_dict(data)
            self.jobs[job.name] = job
        elif kind == "job_remove":
            self.jobs.pop(data["job"], None)
        elif kind == "propose":
            try:
                entry = RegistryEntry.from_wire(data)
            except FleetError:
                return  # stale envelope: the entry did not survive
            # a seq already entered is a log replayed over the snapshot
            # that folded it (a crash between snapshot and truncation)
            if entry.seq not in entries:
                entries[entry.seq] = self.registry._enter(entry)
        elif kind == "activate":
            job, seq = data["job"], int(data["seq"])
            entry = entries.get(seq)
            if entry is None:
                self.registry.retire(job)  # the incumbent still steps down
                self.registry._seq = max(self.registry._seq, seq)
                stale[job] = seq
                return
            stale.pop(job, None)
            # the record *is* the verdict: activate() refuses to journal
            # one without a pass (the propose record predates vetting)
            entry.conformance_ok = True
            self.registry.activate(entry)
        elif kind == "rollback":
            entry = entries.get(int(data["seq"]))
            if entry is not None:
                self.registry.rollback(entry, str(data.get("reason", "")))
        elif kind == "retire":
            self.registry.retire(data["job"])
            stale.pop(data["job"], None)
        elif kind == "transition":
            link = tuple(data["link"])
            estimate = self.estimator.estimate(link)
            self.estimator.restore(
                link, health=LinkHealth(data["new"]),
                # the factor times the declared capacity is the EWMA
                ewma=float(data["factor"]) * estimate.capacity,
                last_transition=float(data["time"]),
                # a link that transitioned had cleared min_samples
                samples=max(estimate.samples, self.estimator.min_samples))
        elif kind == "decision":
            self.decisions.append(AdaptationDecision.from_dict(data))
        elif kind == "commit" and data.get("op") == "step":
            self._step_index = max(self._step_index, int(data["index"]) + 1)
        # "begin" carries no state; unknown kinds are ignored so a newer
        # writer's extra record types do not brick recovery

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {**self._stats.to_dict(),
                "adaptation_solve_time": self._solve_seconds.value}

    def status(self) -> dict:
        """JSON-ready fleet status (``teccl fleet status`` renders this)."""
        status = {
            "jobs": {name: {"priority": job.priority,
                            "method": job.method.value}
                     for name, job in sorted(self._jobs_snapshot().items())},
            "fabric": self.estimator.snapshot(),
            "registry": self.registry.to_dict(),
            "stats": self.stats(),
            "serve_latency": self.planner.serve_latency(),
            "last_error": self.last_error,
            "decisions": [str(d) for d in self.decisions],
            "recovery": self.recovery,
            # the last alert-engine evaluation (additive: the pinned
            # contract covers stats()'s key list, not status()'s)
            "alerts": [alert.to_dict() for alert in self._alerts],
        }
        if self.wal is not None:
            status["wal"] = {
                "path": str(self.wal.path),
                "generation": self.wal.generation,
                "records_written": self.wal.records_written,
                "compactions": self.wal.compactions,
                "fenced": self.wal.fenced(),
            }
        return status
