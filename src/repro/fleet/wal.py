"""Write-ahead persistence for the fleet control plane.

The control plane's state — which schedule is active for which job, which
probes are pending, where each link's flap-suppression clock stands — used
to live only in daemon memory: a crash lost every active schedule, which
is disqualifying for a long-lived serving tier. TACCL and Cloud
Collectives treat synthesized schedules as durable artifacts; this module
makes the *control state around them* durable too:

* :class:`WriteAheadLog` — an append-only JSONL log. Every record is
  framed as ``<length><crc32> <json>\\n`` and fsync'd before the state
  transition it describes is applied (write-ahead, not write-behind), so
  a hard kill can lose at most the transition that had not happened yet.
  On open, a torn tail — a partial final write from a crash — is detected
  by the framing and truncated away.
* **Transactions** — records between a ``begin`` and its ``commit`` form
  one control-plane operation (one daemon ``step``, one admission).
  Recovery applies only committed operations; an operation that ended in
  an ``abort`` (the writer failed and compensated), or that never ended
  at all (a crash, or a fenced writer), is discarded wholesale no matter
  where in the log it sits, and is re-executed by the restarted daemon —
  which is what makes recovery idempotent.
* **Compaction** — the log is periodically folded into a snapshot
  (:meth:`WriteAheadLog.compact`) so it cannot grow without bound. Each
  schedule inside the snapshot is wrapped in the *same* versioned envelope
  the on-disk schedule cache uses (:func:`repro.service.cache
  .make_envelope`), so stale-version schedules are invalidated by the
  same rule in both stores.
* :class:`GenerationLease` — generation-numbered daemon fencing. A new
  daemon taking over bumps the generation; the old generation's next WAL
  append is refused, so a fenced daemon can finish in-flight computation
  but can never persist — and therefore never activate — another
  schedule.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import FleetError

def atomic_write_json(path: str | Path, doc: dict) -> None:
    """Write ``doc`` as JSON so readers never observe a partial file.

    The document lands in a sibling temp file first, is flushed and
    fsync'd, then renamed over the target — ``os.replace`` is atomic on
    POSIX, so a concurrent reader (or a crash mid-dump) sees either the
    old complete file or the new complete file, never a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _pid_alive(pid: int | None) -> bool:
    if not pid:
        return False
    try:
        os.kill(int(pid), 0)
    except (OSError, ValueError):
        return False
    return True


class GenerationLease:
    """A generation-numbered lease file: at most one live daemon writes.

    The lease records ``{generation, pid}``. Acquiring bumps the
    generation; a holder checks ownership before every durable write, so
    the moment a new generation acquires (``takeover=True``), the old
    generation is *fenced*: its appends raise and its activations are
    structurally impossible. An ordinary acquire refuses while the
    recorded holder process is still alive — takeover is an explicit
    operator decision, not a race.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.generation: int | None = None

    def _read(self) -> dict | None:
        try:
            return json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def acquire(self, *, takeover: bool = False) -> int:
        doc = self._read() or {}
        holder = doc.get("pid")
        if (doc and not takeover and holder != os.getpid()
                and _pid_alive(holder)):
            raise FleetError(
                f"lease {self.path} is held by live pid {holder} "
                f"(generation {doc.get('generation')}); pass takeover=True "
                "(teccl fleet run --takeover) to fence it")
        generation = int(doc.get("generation", 0)) + 1
        atomic_write_json(self.path, {"generation": generation,
                                      "pid": os.getpid()})
        self.generation = generation
        return generation

    def check(self) -> bool:
        """Does this holder still own the lease?"""
        if self.generation is None:
            return False
        doc = self._read()
        return bool(doc) and doc.get("generation") == self.generation

    def holder(self) -> dict | None:
        """The current lease document (whoever owns it), or ``None``."""
        return self._read()

    def release(self) -> None:
        if self.check():
            self.path.unlink(missing_ok=True)
        self.generation = None


@dataclass
class WalState:
    """What :meth:`WriteAheadLog.load` recovered from disk."""

    snapshot: dict | None
    #: committed records, in append order, transaction markers included
    records: list[dict]
    #: records of discarded operations: aborted, or begun but never
    #: committed (the crash-interrupted tail included)
    uncommitted: list[dict] = field(default_factory=list)
    #: bytes of torn tail truncated away on open
    torn_bytes: int = 0


# framing: 8 hex chars length + 8 hex chars crc32 + space + body + newline
_HEADER_LEN = 17


def _frame(body: bytes) -> bytes:
    return (f"{len(body):08x}{zlib.crc32(body) & 0xFFFFFFFF:08x} "
            .encode("ascii") + body + b"\n")


@dataclass(frozen=True)
class Encoded:
    """A JSON value already encoded the way :meth:`WriteAheadLog.append`
    encodes a record (sorted keys, compact separators), with the SHA-256
    hex digest of that text.

    Placed anywhere in a record, it is written as ``text`` verbatim: the
    frame is byte-identical to encoding the decoded value, but a value
    that is journaled more than once is encoded only once.
    """

    text: str
    digest: str


def _encode(record: dict) -> bytes:
    """``json.dumps(record, separators=(",", ":"), sort_keys=True)``, with
    every :class:`Encoded` value spliced in as its text.

    Each one is first encoded as a slot string, ``"\\0<digest>"``, then
    the slot is replaced by the text. A record in which some other string
    reads exactly like a slot is encoded the plain way instead.
    """
    spliced: list[Encoded] = []

    def slot(value) -> str:
        if not isinstance(value, Encoded):
            raise TypeError(f"Object of type {type(value).__name__} "
                            "is not JSON serializable")
        spliced.append(value)
        return "\0" + value.digest

    text = json.dumps(record, separators=(",", ":"), sort_keys=True,
                      default=slot)
    for value in spliced:
        quoted = json.dumps("\0" + value.digest)
        if text.count(quoted) != 1:
            text = json.dumps(record, separators=(",", ":"), sort_keys=True,
                              default=lambda encoded: json.loads(
                                  encoded.text))
            break
        text = text.replace(quoted, value.text)
    return text.encode("utf-8")


class WriteAheadLog:
    """Append-only, checksum-framed, fsync'd JSONL log with snapshots.

    Args:
        path: the log file; ``<path>.snapshot`` holds the compacted state
            and ``<path>.lease`` the generation lease.
        lease: optional :class:`GenerationLease` to check before every
            append (fencing). :meth:`attach_lease` wires the conventional
            sibling path.
        fsync: fsync after every append (the durability guarantee; tests
            may disable it to run crash sweeps faster than the disk).
    """

    def __init__(self, path: str | Path, *,
                 lease: GenerationLease | None = None,
                 fsync: bool = True) -> None:
        self.path = Path(path)
        self.snapshot_path = self.path.with_name(self.path.name
                                                 + ".snapshot")
        self.lease = lease
        self._fsync = fsync
        self._file = None
        self._seq = 0
        self.records_written = 0
        self.compactions = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lease / fencing
    # ------------------------------------------------------------------
    def attach_lease(self, *, takeover: bool = False) -> int:
        """Acquire the sibling ``<path>.lease`` and fence via it."""
        self.lease = GenerationLease(
            self.path.with_name(self.path.name + ".lease"))
        return self.lease.acquire(takeover=takeover)

    def fenced(self) -> bool:
        """True when another generation took the lease away from us."""
        return self.lease is not None and not self.lease.check()

    @property
    def generation(self) -> int | None:
        return None if self.lease is None else self.lease.generation

    # ------------------------------------------------------------------
    # reading (recovery)
    # ------------------------------------------------------------------
    def has_state(self) -> bool:
        """Anything durable on disk worth recovering?"""
        for candidate in (self.path, self.snapshot_path):
            try:
                if candidate.stat().st_size > 0:
                    return True
            except OSError:
                continue
        return False

    def load(self) -> WalState:
        """Read snapshot + log, validating frames; torn tail reported.

        Does not mutate the file — truncation happens when the log is
        next opened for appending (:meth:`_open`), so a read-only
        inspection (``teccl fleet status``) never rewrites history.
        """
        snapshot = None
        if self.snapshot_path.exists():
            try:
                snapshot = json.loads(
                    self.snapshot_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise FleetError(
                    f"unreadable WAL snapshot {self.snapshot_path}: {exc}"
                ) from exc
        records, _good_bytes, torn = self._scan()
        committed, uncommitted = _split_uncommitted(records)
        return WalState(snapshot=snapshot, records=committed,
                        uncommitted=uncommitted, torn_bytes=torn)

    def _scan(self) -> tuple[list[dict], int, int]:
        """Parse every well-framed record; returns (records, good_bytes,
        torn_bytes). Parsing stops at the first bad frame: everything
        after it is untrustworthy (a torn tail, or bitrot mid-file)."""
        try:
            raw = self.path.read_bytes()
        except OSError:
            return [], 0, 0
        records: list[dict] = []
        offset = 0
        while offset < len(raw):
            end = raw.find(b"\n", offset)
            if end < 0:
                break  # no terminator: a torn final write
            line = raw[offset:end]
            if len(line) < _HEADER_LEN:
                break
            try:
                length = int(line[:8], 16)
                crc = int(line[8:16], 16)
            except ValueError:
                break
            body = line[_HEADER_LEN:]
            if len(body) != length \
                    or (zlib.crc32(body) & 0xFFFFFFFF) != crc:
                break
            try:
                records.append(json.loads(body.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError):
                break
            offset = end + 1
        return records, offset, len(raw) - offset

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _open(self):
        if self._file is not None:
            return self._file
        self.path.parent.mkdir(parents=True, exist_ok=True)
        records, good_bytes, torn = self._scan()
        if torn:
            # crash mid-append: drop the torn tail so the log is again a
            # clean sequence of whole records
            with open(self.path, "r+b") as handle:
                handle.truncate(good_bytes)
        self._seq = max((r.get("seq", 0) for r in records), default=0)
        self._file = open(self.path, "ab")
        return self._file

    def _raise_fenced(self) -> None:
        raise FleetError(
            f"WAL {self.path} is fenced: generation "
            f"{self.generation} lost the lease to "
            f"{(self.lease.holder() or {}).get('generation')}")

    def append(self, kind: str, data: dict | None = None, *,
               now: float | None = None) -> int:
        """Durably append one record *before* the caller applies it.

        Raises :class:`~repro.errors.FleetError` when fenced — the
        caller's state transition must then not happen, which is exactly
        the write-ahead contract: no durable record, no transition.

        The frame's body is ``json.dumps(record, separators=(",", ":"),
        sort_keys=True)``. An :class:`Encoded` value inside ``data`` is
        spliced in as its text rather than encoded again, so a schedule
        is encoded once however many records carry it, and the frame's
        bytes do not change.

        Fencing is checked twice, both times under the lock: once before
        the write, and again after the fsync. A takeover that lands
        inside that window is detected by the re-check, and the record —
        already durable — is truncated back off before the raise, so the
        superseded generation leaves no trace (the truncation is skipped
        if another writer already appended past us; the record is then an
        orphan inside a transaction that can never commit, which recovery
        discards anyway).
        """
        record = {"seq": 0, "kind": str(kind), "data": data or {}}
        if now is not None:
            record["now"] = float(now)
        if self.generation is not None:
            record["gen"] = self.generation
        with self._lock:
            if self.fenced():
                self._raise_fenced()
            handle = self._open()
            self._seq += 1
            record["seq"] = self._seq
            frame = _frame(_encode(record))
            start = os.fstat(handle.fileno()).st_size
            handle.write(frame)
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
            if self.fenced():
                end = os.fstat(handle.fileno()).st_size
                if end == start + len(frame):
                    # nothing landed after us: unwrite the record
                    handle.truncate(start)
                    handle.flush()
                    if self._fsync:
                        os.fsync(handle.fileno())
                self._seq -= 1
                self._raise_fenced()
            self.records_written += 1
        return record["seq"]

    def compact(self, state: dict) -> None:
        """Fold the log into a snapshot and truncate it.

        ``state`` must pass :func:`repro.service.schema
        .check_registry_state` — the registry-state wire schema — so a
        future recovery can trust its shape. The snapshot is written
        atomically *first*; only then is the log truncated, so a crash
        between the two leaves a snapshot plus a (harmlessly) replayable
        log, never neither.
        """
        from repro.service.schema import check_registry_state

        if self.fenced():
            raise FleetError("refusing to compact a fenced WAL")
        check_registry_state(state)
        with self._lock:
            if self.fenced():  # re-check now that no append can race us
                raise FleetError("refusing to compact a fenced WAL")
            atomic_write_json(self.snapshot_path, state)
            handle = self._open()
            handle.truncate(0)
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
            self.compactions += 1

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _split_uncommitted(records: list[dict]
                       ) -> tuple[list[dict], list[dict]]:
    """Split the log into committed history and discarded records.

    Transaction-aware, not just tail-aware: an operation's records only
    enter the committed history when its ``commit`` marker arrives. An
    operation that ended in an ``abort`` (the writer failed mid-way and
    compensated), or whose ``begin`` is never matched by either marker
    (a crash — or a fenced writer that could not even append its abort
    record, detectable because the next operation's ``begin`` or the end
    of the log arrives first), is discarded wholesale *even when later
    operations committed after it* — replaying a buried aborted admission
    would resurrect a ghost job the daemon already compensated away.
    Records outside any transaction pass through as committed.
    """
    committed: list[dict] = []
    discarded: list[dict] = []
    pending: list[dict] | None = None
    for record in records:
        kind = record.get("kind")
        if kind == "begin":
            if pending is not None:
                discarded.extend(pending)  # begun, never resolved
            pending = [record]
        elif kind == "commit":
            if pending is not None:
                committed.extend(pending)
                pending = None
            committed.append(record)
        elif kind == "abort":
            if pending is not None:
                discarded.extend(pending)
                pending = None
            discarded.append(record)
        elif pending is not None:
            pending.append(record)
        else:
            committed.append(record)
    if pending is not None:
        discarded.extend(pending)
    return committed, discarded
