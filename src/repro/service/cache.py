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
#: copy per symmetric variant served from it (cleared when full)
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
    """

    __slots__ = ("payload", "_parsed")

    def __init__(self, payload: dict) -> None:
        self.payload = payload
        self._parsed: dict = {}

    def result(self, inverse: tuple | None = None) -> SynthesisResult:
        """The deserialised result — mapped through the node permutation
        ``inverse`` when given — built on first request, shared after."""
        found = self._parsed.get(inverse)
        if found is None:
            found = (SynthesisResult.from_dict(self.payload)
                     if inverse is None
                     else self.result().relabeled(inverse))
            if len(self._parsed) >= PARSED_PER_ENTRY:
                self._parsed.clear()
            self._parsed[inverse] = found
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
    near_hits: int = 0
    near_misses: int = 0

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
            "near_hits": self.near_hits,
            "near_misses": self.near_misses,
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
        # near-fingerprint -> fingerprints sharing it, in store order (the
        # warm-start donor index; see fingerprint.canonical_near_request)
        self._near_index: dict[str, OrderedDict[str, None]] = {}
        # the disk tier's envelopes are folded into the index at most once
        self._near_disk_loaded = self.directory is None
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
            self._insert_memory(fingerprint, payload)
            return payload
        self.stats.misses += 1
        return None

    def put(self, fingerprint: str, payload: dict,
            meta: dict | None = None) -> None:
        """Store a payload in both tiers.

        ``meta["near"]``, when present, must be the request's
        near-fingerprint; the entry is then registered as a warm-start
        donor for its equivalence class (:meth:`get_near`). The near key
        also lands in the disk envelope, so donor lookups survive process
        restarts.
        """
        self._check_fingerprint(fingerprint)
        self._insert_memory(fingerprint, payload)
        near = (meta or {}).get("near")
        if near:
            self._check_fingerprint(near)
            # fold pre-restart disk donors in first, so this store really
            # is the most recent entry of its class
            self._load_disk_near_index()
            index = self._near_index.setdefault(near, OrderedDict())
            index.pop(fingerprint, None)
            index[fingerprint] = None  # most recent donor last
        if self.directory is not None:
            envelope = make_envelope(fingerprint, payload, meta)
            path = self._path(fingerprint)
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(envelope), encoding="utf-8")
            tmp.replace(path)  # atomic on POSIX: readers never see half a file
        self.stats.stores += 1

    def get_near(self, near_fingerprint: str) -> dict | None:
        """Fetch a warm-start donor payload for an equivalence class.

        The planner calls this on a cache *miss*: a schedule solved for the
        same fabric shape and demand under a different horizon or a
        uniformly rescaled capacity is a sound seed for the fresh solve.
        Prefers the most recently stored donor. The disk tier's envelopes
        (their ``meta`` records the near key) are folded into the index
        **once**, on the first lookup after a restart — never a per-miss
        directory scan. Returns ``None`` when the class has no usable
        member.
        """
        self._check_fingerprint(near_fingerprint)
        self._load_disk_near_index()
        index = self._near_index.get(near_fingerprint)
        if index:
            for fingerprint in reversed(index):
                payload = self.peek(fingerprint)
                if payload is not None:
                    self.stats.near_hits += 1
                    return payload
        self.stats.near_misses += 1
        return None

    def _load_disk_near_index(self) -> None:
        """Fold the disk tier's near keys into the index (at most once).

        Envelopes are visited oldest-mtime first so the in-memory recency
        order (most recent donor last) survives a restart.
        """
        if self._near_disk_loaded:
            return
        self._near_disk_loaded = True
        infos = [(info, self._path(info.fingerprint))
                 for info in self.entries()
                 if not info.stale and info.meta.get("near")]
        def mtime(item):
            try:
                return item[1].stat().st_mtime
            except OSError:
                return 0.0
        for info, _path in sorted(infos, key=mtime):
            near = info.meta["near"]
            try:
                self._check_fingerprint(info.fingerprint)
                self._check_fingerprint(near)
            except ServiceError:
                continue  # a mangled envelope must not poison the index
            index = self._near_index.setdefault(near, OrderedDict())
            index.setdefault(info.fingerprint, None)

    def peek(self, fingerprint: str) -> dict | None:
        """Tier lookup that touches no hit/miss counters and no LRU order.

        For bookkeeping-sensitive re-probes (the planner's post-
        canonicalisation double-check) and donor validation — ``get`` is
        the serving path.
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
        for index in self._near_index.values():
            index.pop(fingerprint, None)
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
        self._near_index.clear()
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
    def _insert_memory(self, fingerprint: str, payload: dict) -> None:
        self._memory[fingerprint] = CacheEntry(payload)
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.capacity:
            evicted, _ = self._memory.popitem(last=False)
            self.stats.evictions += 1
            if self.directory is None:
                # memory-only cache: the payload is gone for good, so the
                # fingerprint must stop donating (with a disk tier the
                # envelope still backs the index entry)
                for index in self._near_index.values():
                    index.pop(evicted, None)
