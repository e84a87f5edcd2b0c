"""The content-addressed store: atomicity, LRU GC, stats."""

import os
import time

import pytest

from repro.build import ArtifactStore, StoreError


def _key(n: int) -> str:
    return f"{n:064x}"


def _objects(root) -> list:
    """The stored object files under *root* (temporaries excluded)."""
    return [path for path in (root / "objects").glob("*/*")
            if not path.name.startswith(".")]


class TestObjectAccess:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(_key(1), b"payload")
        assert store.get(_key(1)) == b"payload"
        assert store.stats.hits == 1
        assert store.stats.puts == 1

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get(_key(2)) is None
        assert store.stats.misses == 1

    def test_text_helpers(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_text(_key(3), "générateur")  # utf-8 survives
        assert store.get(_key(3), bytes.decode) == "générateur"

    def test_put_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(_key(4), b"same bytes")
        store.put(_key(4), b"same bytes")
        assert store.stats.puts == 1
        assert len(_objects(tmp_path)) == 1

    def test_undecodable_object_is_a_miss_and_replaced(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(_key(8), b"\xff torn")
        assert store.get(_key(8), bytes.decode) is None   # not UTF-8
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        store.put_text(_key(8), "whole")
        assert store.get(_key(8), bytes.decode) == "whole"
        assert store.stats.puts == 2

    def test_contains_moves_no_counters(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(_key(5), b"x")
        assert store.contains(_key(5))
        assert not store.contains(_key(6))
        assert store.stats.lookups == 0

    def test_malformed_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(StoreError):
            store.put("../../escape", b"nope")
        with pytest.raises(StoreError):
            store.get("UPPER")

    def test_unusable_root_raises_store_error(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("in the way")
        with pytest.raises(StoreError):
            ArtifactStore(blocker / "cache")

    def test_no_temp_droppings_after_puts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for n in range(10):
            store.put(_key(n), b"x" * 100)
        leftovers = [p for p in (tmp_path / "objects").rglob(".obj.*")]
        assert leftovers == []


class TestSharedDirectory:
    def test_two_stores_share_objects(self, tmp_path):
        writer = ArtifactStore(tmp_path)
        reader = ArtifactStore(tmp_path)
        writer.put(_key(7), b"shared")
        assert reader.get(_key(7)) == b"shared"


class TestGC:
    def test_gc_evicts_least_recently_used_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for n in range(4):
            store.put(_key(n), b"x" * 100)
        # age objects 0..3 oldest-first, then refresh 0 by reading it
        now = time.time()
        for n in range(4):
            os.utime(store._path(_key(n)), (now - 100 + n, now - 100 + n))
        store.get(_key(0))
        evicted = store.gc(max_bytes=250)
        assert evicted == 2
        assert store.stats.evictions == 2
        assert store.contains(_key(0))       # refreshed — survived
        assert not store.contains(_key(1))   # oldest unread — evicted
        assert not store.contains(_key(2))
        assert store.contains(_key(3))

    def test_put_triggers_gc_when_budget_configured(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=250)
        for n in range(4):
            store.put(_key(n), b"x" * 100)
            time.sleep(0.01)  # distinct mtimes on coarse filesystems
        assert sum(path.stat().st_size
                   for path in _objects(tmp_path)) <= 250
        assert store.stats.evictions >= 1

    def test_gc_without_budget_is_noop(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(_key(1), b"x")
        assert store.gc() == 0
        assert store.contains(_key(1))

    def test_clear_drops_everything(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for n in range(3):
            store.put(_key(n), b"x")
        assert store.clear() == 3
        assert _objects(tmp_path) == []
