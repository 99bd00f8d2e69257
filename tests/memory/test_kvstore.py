"""Tests for the disk-spilling key/value store (§5.2, BerkeleyDB stand-in)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.kvstore import SpillingKVStore


class TestBasics:
    def test_put_get_roundtrip(self):
        store = SpillingKVStore()
        store.put("a", [1, 2, 3])
        assert store.get("a") == [1, 2, 3]
        store.close()

    def test_get_missing_returns_default(self):
        store = SpillingKVStore()
        assert store.get("nope") is None
        assert store.get("nope", 42) == 42
        store.close()

    def test_contains(self):
        store = SpillingKVStore()
        store.put("x", 1)
        assert store.contains("x")
        assert not store.contains("y")
        store.close()

    def test_overwrite(self):
        store = SpillingKVStore()
        store.put("a", 1)
        store.put("a", 2)
        assert store.get("a") == 2
        store.close()

    def test_items_sorted(self):
        store = SpillingKVStore()
        for key in ("c", "a", "b"):
            store.put(key, key)
        assert [k for k, _ in store.items()] == ["a", "b", "c"]
        store.close()


class TestSpilling:
    def test_eviction_to_disk_preserves_values(self):
        # Tiny cache: almost everything must round-trip through the log.
        store = SpillingKVStore(cache_bytes=512, write_buffer_bytes=256)
        for i in range(100):
            store.put(f"key-{i:03d}", f"value-{i}" * 5)
        for i in range(100):
            assert store.get(f"key-{i:03d}") == f"value-{i}" * 5
        assert store.disk_writes > 0
        assert store.disk_reads > 0
        store.close()

    def test_memory_stays_bounded(self):
        store = SpillingKVStore(cache_bytes=2048, write_buffer_bytes=512)
        for i in range(200):
            store.put(f"key-{i:04d}", "v" * 50)
        # Cache + write buffer: bounded regardless of entry count, modulo
        # one oversized in-flight entry.
        assert store.memory_used() < 2048 + 512 + 512
        store.close()

    def test_read_modify_update_cycle(self):
        # The exact §5.2 access pattern, with a cache too small to hold
        # the working set.
        store = SpillingKVStore(cache_bytes=600, write_buffer_bytes=200)
        keys = [f"counter-{i:02d}" for i in range(30)]
        for _round in range(5):
            for key in keys:
                store.put(key, store.get(key, 0) + 1)
        for key in keys:
            assert store.get(key) == 5, key
        store.close()

    def test_stats_exposed(self):
        store = SpillingKVStore(cache_bytes=512)
        for i in range(50):
            store.put(f"k{i}", i)
        _ = store.get("k0")
        stats = store.stats()
        assert stats["puts"] == 50
        assert stats["gets"] == 1
        assert stats["cache_hits"] + stats["cache_misses"] == 1
        assert stats["evictions"] > 0
        store.close()

    def test_finalize_flushes_everything_to_log(self):
        store = SpillingKVStore(cache_bytes=1 << 20)
        for i in range(10):
            store.put(f"key-{i}", i)
        assert store.disk_writes == 0  # all cached, nothing flushed yet
        store.finalize()
        assert store.disk_writes == 10
        assert dict(store.items()) == {f"key-{i}": i for i in range(10)}
        store.close()

    def test_len_counts_all_keys(self):
        store = SpillingKVStore(cache_bytes=512, write_buffer_bytes=128)
        for i in range(40):
            store.put(f"key-{i:02d}", "x" * 40)
        assert len(store) == 40
        store.close()

    def test_persistent_dir(self, tmp_path):
        store = SpillingKVStore(cache_bytes=256, dir_path=str(tmp_path))
        for i in range(20):
            store.put(f"k{i:02d}", i)
        store.finalize()
        # One directory per store under ``dir_path``, the log inside it.
        (log,) = tmp_path.glob("*/data.log")
        assert log.stat().st_size > 0
        store.close()
        assert list(tmp_path.iterdir()) == []


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 25), st.integers(-50, 50)),
        max_size=150,
    ),
    st.integers(min_value=256, max_value=4096),
)
def test_property_kvstore_folding_matches_dict(pairs, cache_bytes):
    """Read-modify-update through the KV store equals a plain dict fold,
    for any cache size (i.e. spilling never loses or corrupts partials)."""
    store = SpillingKVStore(cache_bytes=cache_bytes, write_buffer_bytes=256)
    model: dict[int, int] = {}
    for key, value in pairs:
        store.put(key, store.get(key, 0) + value)
        model[key] = model.get(key, 0) + value
    assert dict(store.items()) == model
    store.close()


class TestCompaction:
    def test_reclaims_dead_versions(self):
        store = SpillingKVStore(cache_bytes=256, write_buffer_bytes=128)
        for _round in range(10):
            for key in range(20):
                store.put(key, f"value-{_round}-{key}" * 3)
        store.finalize()
        before = store.log_size_bytes()
        reclaimed = store.compact()
        after = store.log_size_bytes()
        assert reclaimed > 0
        assert after < before
        assert before - after == reclaimed
        assert store.compactions == 1
        store.close()

    def test_values_survive_compaction(self):
        store = SpillingKVStore(cache_bytes=256, write_buffer_bytes=128)
        for key in range(30):
            store.put(key, key)
        for key in range(30):
            store.put(key, key * 10)  # dead first versions
        store.compact()
        for key in range(30):
            assert store.get(key) == key * 10, key
        assert len(store) == 30
        store.close()

    def test_compacting_fresh_store_is_noop(self):
        store = SpillingKVStore()
        assert store.compact() == 0
        store.close()

    def test_read_modify_update_after_compaction(self):
        store = SpillingKVStore(cache_bytes=512, write_buffer_bytes=128)
        for key in range(25):
            store.put(key, 1)
        store.compact()
        for key in range(25):
            store.put(key, store.get(key, 0) + 1)
        assert all(store.get(key) == 2 for key in range(25))
        store.close()


class TestWireFormatIntegrity:
    """The append log is CRC-framed: corrupt entries fail loudly instead
    of handing a decoded-garbage value back to the reducer."""

    def _evicted(self, tmp_path):
        store = SpillingKVStore(
            cache_bytes=256, write_buffer_bytes=64, dir_path=str(tmp_path)
        )
        for i in range(40):
            store.put(f"key-{i:03d}", [i, i * 2])
        store.finalize()
        return store

    def test_bit_flip_in_log_raises(self, tmp_path):
        from repro.dfs.serialization import SerializationError

        store = self._evicted(tmp_path)
        offset, length = store._index["key-000"]
        with open(store._log_path, "r+b") as fh:
            fh.seek(offset + length // 2)
            byte = fh.read(1)
            fh.seek(offset + length // 2)
            fh.write(bytes([byte[0] ^ 0x20]))
        with pytest.raises(SerializationError):
            store.get("key-000")
        store.close()

    def test_truncated_log_raises(self, tmp_path):
        import os

        from repro.dfs.serialization import SerializationError

        store = self._evicted(tmp_path)
        last_key = max(store._index, key=lambda k: store._index[k][0])
        with open(store._log_path, "r+b") as fh:
            fh.truncate(os.path.getsize(store._log_path) - 2)
        # Read the log location directly: get() may still serve the most
        # recently written keys from the LRU cache.
        with pytest.raises(SerializationError):
            store._read_log(store._index[last_key])
        store.close()
