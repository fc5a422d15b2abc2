"""Two-tier schedule cache: in-memory LRU over an on-disk JSON store.

The paper amortises a one-off synthesis over millions of training iterations
(§6.2: hours of solver time, reused for weeks); TACCL ships the same idea as
offline-generated algorithm files. The cache makes that amortisation a
property of the serving layer instead of the caller's discipline:

* **memory tier** — a bounded LRU of payload dicts, each with its parsed
  :class:`~repro.core.solve.SynthesisResult` built on first hit
  (:class:`CacheEntry`), for the steady state where one planner process
  serves a hot working set;
* **disk tier** — one ``<fingerprint>.json`` envelope per entry (the same
  "plain JSON document" dialect as :mod:`repro.topology.io`), so schedules
  survive process restarts and can be shipped between machines.

Every envelope records the cache-format version and the package version that
produced it; a mismatch on either is treated as a miss and the stale file is
deleted (solver semantics may have changed under the entry).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections import OrderedDict
from pathlib import Path

from repro import __version__ as _package_version
from repro.core.solve import SynthesisResult
from repro.errors import ServiceError

#: Bump when the envelope layout or payload schema changes.
CACHE_FORMAT_VERSION = 1

_FINGERPRINT_CHARS = set("0123456789abcdef")

#: parsed forms kept per entry: the deserialised result plus one relabelled
#: or rescaled copy per variant served from it (cleared when full)
PARSED_PER_ENTRY = 32


def make_envelope(fingerprint: str, payload: dict,
                  meta: dict | None = None) -> dict:
    """Wrap one schedule payload in the versioned disk envelope.

    The same envelope serves both durable stores: the schedule cache's
    per-fingerprint files and the fleet WAL's compaction snapshots
    (:meth:`repro.fleet.wal.WriteAheadLog.compact`), so a payload written
    under an older cache format or package version is invalidated by one
    rule everywhere.
    """
    return {
        "version": CACHE_FORMAT_VERSION,
        "package": _package_version,
        "fingerprint": fingerprint,
        "meta": meta or {},
        "payload": payload,
    }


def open_envelope(envelope: dict) -> dict | None:
    """Unwrap an envelope; ``None`` when malformed or version-stale."""
    try:
        version = envelope["version"]
        package = envelope["package"]
        payload = envelope["payload"]
    except (KeyError, TypeError):
        return None
    if version != CACHE_FORMAT_VERSION or package != _package_version:
        return None
    return payload if isinstance(payload, dict) else None


class CacheEntry:
    """One memory-tier entry: the payload and, lazily, its parsed forms.

    The parsed results live and die with the entry — a ``put``, ``evict``,
    ``purge`` or LRU eviction replaces or drops the whole object, so a
    changed payload is always parsed again. They are **shared**: every hit
    is handed the same object, which callers must treat as read-only.
    ``result`` is the parsed form when the caller already holds it (a
    solve in this process); it is then never parsed at all.
    """

    __slots__ = ("payload", "_parsed")

    def __init__(self, payload: dict,
                 result: SynthesisResult | None = None) -> None:
        self.payload = payload
        self._parsed: dict = {} if result is None else {(None, None): result}

    def holds(self, value) -> bool:
        """Whether ``value`` (a pool's payload or solved result) is the
        one this entry was made from."""
        return value is self.payload \
            or value is self._parsed.get((None, None))

    def result(self, inverse=None, rescale=None) -> SynthesisResult:
        """The deserialised result — mapped back to the caller's node and
        chunk labels through ``inverse`` (a
        :class:`~repro.core.symmetry.Relabeling`) and then onto the
        caller's fabric of ``rescale`` (a
        :class:`~repro.service.fingerprint.Rescale`) when given — built
        on first request, shared after. Both key the forms by identity:
        one object per canonicalization and per proof."""
        key = (inverse, rescale)
        found = self._parsed.get(key)
        if found is None:
            if rescale is not None:
                found = self.result(inverse).rescaled(rescale.topology)
            elif inverse is not None:
                found = self.result().relabeled(inverse.perm,
                                                inverse.chunks)
            else:
                found = SynthesisResult.from_dict(self.payload)
            if len(self._parsed) >= PARSED_PER_ENTRY:
                self._parsed.clear()
            self._parsed[key] = found
        return found


@dataclass
class CacheStats:
    """Counters for one cache instance (cumulative since construction)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


@dataclass
class CacheEntryInfo:
    """Metadata for one on-disk entry (``teccl cache --action list``)."""

    fingerprint: str
    size_bytes: int
    version: int
    package: str
    stale: bool = False
    meta: dict = field(default_factory=dict)


class ScheduleCache:
    """Bounded LRU of solved-schedule payloads, optionally disk-backed.

    Args:
        capacity: max entries held in memory (≥ 1). The disk tier is
            unbounded — schedules are kilobytes and disk is the archival
            tier by design.
        directory: where envelopes live; ``None`` disables the disk tier.
    """

    def __init__(self, capacity: int = 128,
                 directory: str | Path | None = None) -> None:
        if capacity < 1:
            raise ServiceError("cache capacity must be at least 1")
        self.capacity = capacity
        self.directory = (Path(directory).expanduser()
                          if directory is not None else None)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: OrderedDict[str, CacheEntry] = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> dict | None:
        """Look a fingerprint up; promotes disk hits into the memory tier."""
        self._check_fingerprint(fingerprint)
        if fingerprint in self._memory:
            self._memory.move_to_end(fingerprint)
            self.stats.memory_hits += 1
            return self._memory[fingerprint].payload
        payload = self._read_disk(fingerprint)
        if payload is not None:
            self.stats.disk_hits += 1
            self._insert_memory(fingerprint, CacheEntry(payload))
            return payload
        self.stats.misses += 1
        return None

    def put(self, fingerprint: str, payload: dict | CacheEntry,
            meta: dict | None = None) -> None:
        """Store a payload in both tiers; ``meta`` is free-form and rides
        the disk envelope (``teccl cache --action list`` shows it). A
        :class:`CacheEntry` is stored as it is, parsed forms included."""
        self._check_fingerprint(fingerprint)
        entry = payload if isinstance(payload, CacheEntry) \
            else CacheEntry(payload)
        payload = entry.payload
        self._insert_memory(fingerprint, entry)
        if self.directory is not None:
            envelope = make_envelope(fingerprint, payload, meta)
            path = self._path(fingerprint)
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(envelope), encoding="utf-8")
            tmp.replace(path)  # atomic on POSIX: readers never see half a file
        self.stats.stores += 1

    def peek(self, fingerprint: str) -> dict | None:
        """Tier lookup that touches no hit/miss counters and no LRU order.

        For bookkeeping-sensitive re-probes (the planner's post-
        canonicalisation double-check) — ``get`` is the serving path.
        """
        if fingerprint in self._memory:
            return self._memory[fingerprint].payload
        return self._read_disk(fingerprint)

    def entry(self, fingerprint: str) -> CacheEntry | None:
        """The memory-tier entry (payload + shared parsed results), or
        ``None`` when the fingerprint is not resident; no counters, no LRU
        touch — call it right after the :meth:`get` that served the hit."""
        return self._memory.get(fingerprint)

    def contains(self, fingerprint: str) -> bool:
        """Membership test that does not touch hit/miss counters."""
        self._check_fingerprint(fingerprint)
        if fingerprint in self._memory:
            return True
        if self.directory is None:
            return False
        return self._path(fingerprint).exists()

    def evict(self, fingerprint: str) -> bool:
        """Drop one entry from both tiers; True if anything was removed.

        The planner's post-solve conformance gate uses this to expel a
        cached schedule that fails its replay, so the next request for the
        fingerprint re-solves instead of failing forever.
        """
        self._check_fingerprint(fingerprint)
        removed = self._memory.pop(fingerprint, None) is not None
        if self.directory is not None:
            path = self._path(fingerprint)
            if path.exists():
                path.unlink(missing_ok=True)
                removed = True
        return removed

    def purge(self) -> int:
        """Drop every entry from both tiers; returns *logical* entries
        removed (an entry resident in both tiers counts once)."""
        removed = set(self._memory)
        self._memory.clear()
        if self.directory is not None:
            for path in self.directory.glob("*.json"):
                removed.add(path.stem)
                path.unlink(missing_ok=True)
        return len(removed)

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _path(self, fingerprint: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{fingerprint}.json"

    @staticmethod
    def _check_fingerprint(fingerprint: str) -> None:
        # Fingerprints become file names; only hex digests are acceptable.
        if not fingerprint or not set(fingerprint) <= _FINGERPRINT_CHARS:
            raise ServiceError(f"not a hex fingerprint: {fingerprint!r}")

    def _read_disk(self, fingerprint: str) -> dict | None:
        if self.directory is None:
            return None
        path = self._path(fingerprint)
        if not path.exists():
            return None
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            # Corrupt entry: worth dropping so it stops costing a parse.
            path.unlink(missing_ok=True)
            self.stats.invalidations += 1
            return None
        payload = open_envelope(envelope)
        if payload is None:
            path.unlink(missing_ok=True)
            self.stats.invalidations += 1
            return None
        return payload

    def entries(self) -> list[CacheEntryInfo]:
        """Describe the disk tier without loading payloads into memory."""
        if self.directory is None:
            return []
        out: list[CacheEntryInfo] = []
        for path in sorted(self.directory.glob("*.json")):
            try:
                envelope = json.loads(path.read_text(encoding="utf-8"))
                info = CacheEntryInfo(
                    fingerprint=envelope["fingerprint"],
                    size_bytes=path.stat().st_size,
                    version=envelope["version"],
                    package=envelope["package"],
                    stale=(envelope["version"] != CACHE_FORMAT_VERSION
                           or envelope["package"] != _package_version),
                    meta=envelope.get("meta", {}))
            except (json.JSONDecodeError, KeyError, TypeError, OSError):
                info = CacheEntryInfo(fingerprint=path.stem, size_bytes=0,
                                      version=-1, package="?", stale=True)
            out.append(info)
        return out

    # ------------------------------------------------------------------
    # memory tier
    # ------------------------------------------------------------------
    def _insert_memory(self, fingerprint: str, entry: CacheEntry) -> None:
        self._memory[fingerprint] = entry
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
