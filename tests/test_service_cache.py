"""The two-tier schedule cache: LRU, disk persistence, invalidation."""

import json

import pytest

from repro.errors import ServiceError
from repro.service import CACHE_FORMAT_VERSION, ScheduleCache

FP_A = "a" * 64
FP_B = "b" * 64
FP_C = "c" * 64


class TestMemoryTier:
    def test_put_get_roundtrip(self):
        cache = ScheduleCache(capacity=4)
        cache.put(FP_A, {"x": 1})
        assert cache.get(FP_A) == {"x": 1}
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 0

    def test_miss_counted(self):
        cache = ScheduleCache(capacity=4)
        assert cache.get(FP_A) is None
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = ScheduleCache(capacity=2)
        cache.put(FP_A, {"v": "a"})
        cache.put(FP_B, {"v": "b"})
        cache.get(FP_A)               # A is now most-recent
        cache.put(FP_C, {"v": "c"})   # evicts B, not A
        assert cache.get(FP_A) is not None
        assert cache.get(FP_B) is None
        assert cache.stats.evictions == 1

    def test_capacity_validated(self):
        with pytest.raises(ServiceError, match="capacity"):
            ScheduleCache(capacity=0)

    def test_non_hex_fingerprint_rejected(self):
        cache = ScheduleCache(capacity=2)
        with pytest.raises(ServiceError, match="hex"):
            cache.put("../evil", {"v": 1})

    def test_lookups_reject_traversal_keys(self, tmp_path):
        """get()/contains() must never turn a key into an escape path."""
        victim = tmp_path / "victim.json"
        victim.write_text("{}")
        cache = ScheduleCache(capacity=2, directory=tmp_path / "cache")
        for key in ("../victim", "..", "a/b", ""):
            with pytest.raises(ServiceError, match="hex"):
                cache.get(key)
            with pytest.raises(ServiceError, match="hex"):
                cache.contains(key)
        assert victim.exists()  # nothing outside the cache dir was touched


class TestDiskTier:
    def test_survives_new_instance(self, tmp_path):
        first = ScheduleCache(capacity=4, directory=tmp_path)
        first.put(FP_A, {"x": 42})
        fresh = ScheduleCache(capacity=4, directory=tmp_path)
        assert fresh.get(FP_A) == {"x": 42}
        assert fresh.stats.disk_hits == 1

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        ScheduleCache(capacity=4, directory=tmp_path).put(FP_A, {"x": 1})
        cache = ScheduleCache(capacity=4, directory=tmp_path)
        cache.get(FP_A)
        cache.get(FP_A)
        assert cache.stats.disk_hits == 1
        assert cache.stats.memory_hits == 1

    def test_eviction_does_not_lose_disk_copy(self, tmp_path):
        cache = ScheduleCache(capacity=1, directory=tmp_path)
        cache.put(FP_A, {"v": "a"})
        cache.put(FP_B, {"v": "b"})  # evicts A from memory only
        assert cache.get(FP_A) == {"v": "a"}
        assert cache.stats.disk_hits == 1

    def test_version_mismatch_invalidates(self, tmp_path):
        cache = ScheduleCache(capacity=4, directory=tmp_path)
        cache.put(FP_A, {"x": 1})
        path = tmp_path / f"{FP_A}.json"
        envelope = json.loads(path.read_text())
        envelope["version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(envelope))
        fresh = ScheduleCache(capacity=4, directory=tmp_path)
        assert fresh.get(FP_A) is None
        assert fresh.stats.invalidations == 1
        assert not path.exists()  # stale file dropped

    def test_package_version_mismatch_invalidates(self, tmp_path):
        cache = ScheduleCache(capacity=4, directory=tmp_path)
        cache.put(FP_A, {"x": 1})
        path = tmp_path / f"{FP_A}.json"
        envelope = json.loads(path.read_text())
        envelope["package"] = "0.0.0-ancient"
        path.write_text(json.dumps(envelope))
        fresh = ScheduleCache(capacity=4, directory=tmp_path)
        assert fresh.get(FP_A) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        (tmp_path / f"{FP_A}.json").write_text("{not json")
        cache = ScheduleCache(capacity=4, directory=tmp_path)
        assert cache.get(FP_A) is None
        assert cache.stats.invalidations == 1

    def test_purge_clears_both_tiers(self, tmp_path):
        cache = ScheduleCache(capacity=4, directory=tmp_path)
        cache.put(FP_A, {"x": 1})
        cache.put(FP_B, {"x": 2})
        # each entry lives in both tiers but is one logical entry
        assert cache.purge() == 2
        assert cache.get(FP_A) is None
        assert list(tmp_path.glob("*.json")) == []

    def test_directory_expands_user(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = ScheduleCache(capacity=2, directory="~/.cache/teccl-test")
        cache.put(FP_A, {"x": 1})
        assert (tmp_path / ".cache" / "teccl-test" / f"{FP_A}.json").exists()
        import pathlib
        assert not pathlib.Path("~").exists()  # no literal "~" dir in CWD

    def test_entries_listing(self, tmp_path):
        cache = ScheduleCache(capacity=4, directory=tmp_path)
        cache.put(FP_A, {"x": 1}, meta={"note": "hello"})
        entries = cache.entries()
        assert len(entries) == 1
        assert entries[0].fingerprint == FP_A
        assert entries[0].stale is False
        assert entries[0].meta == {"note": "hello"}

    def test_contains_does_not_touch_stats(self, tmp_path):
        cache = ScheduleCache(capacity=4, directory=tmp_path)
        cache.put(FP_A, {"x": 1})
        assert cache.contains(FP_A)
        assert not cache.contains(FP_B)
        assert cache.stats.misses == 0
        assert cache.stats.hits == 0


    def test_envelope_with_a_near_key_still_opens(self, tmp_path):
        """Envelopes archived before result-level seeding was deleted carry
        ``meta["near"]``: the key is inert metadata now, the entry serves."""
        from repro import __version__

        (tmp_path / f"{FP_A}.json").write_text(json.dumps({
            "version": CACHE_FORMAT_VERSION, "package": __version__,
            "fingerprint": FP_A, "meta": {"near": "d" * 64},
            "payload": {"v": "a"}}), encoding="utf-8")
        cache = ScheduleCache(capacity=4, directory=tmp_path)
        assert cache.get(FP_A) == {"v": "a"}
        assert cache.stats.disk_hits == 1
        assert cache.entries()[0].meta == {"near": "d" * 64}
