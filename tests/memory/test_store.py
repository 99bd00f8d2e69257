"""Tests for the in-memory TreeMapStore, including the OOM fault model."""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.demo import demo_job_and_input
from repro.core.api import BatchReduceContext, Mapper
from repro.core.partial import PartialResultStore
from repro.core.types import Counters, ExecutionMode, ReducerOutOfMemoryError
from repro.engine.base import run_map_task
from repro.engine.local import LocalEngine
from repro.memory.checkpoint import checkpoint_path
from repro.memory.store import TreeMapStore


class TestProtocol:
    def test_satisfies_partial_result_store(self):
        assert isinstance(TreeMapStore(), PartialResultStore)

    def test_get_put_contains(self):
        store = TreeMapStore()
        assert not store.contains("a")
        assert store.get("a") is None
        assert store.get("a", 0) == 0
        store.put("a", 5)
        assert store.contains("a")
        assert store.get("a") == 5
        assert len(store) == 1

    def test_items_sorted(self):
        store = TreeMapStore()
        for key in ("c", "a", "b"):
            store.put(key, key.upper())
        assert list(store.items()) == [("a", "A"), ("b", "B"), ("c", "C")]

    def test_finalize_is_noop(self):
        store = TreeMapStore()
        store.put("a", 1)
        store.finalize()
        assert list(store.items()) == [("a", 1)]


class TestMemoryAccounting:
    def test_memory_grows_with_entries(self):
        store = TreeMapStore()
        store.put("a", 1)
        first = store.memory_used()
        store.put("b", 2)
        assert store.memory_used() > first

    def test_replace_adjusts_not_accumulates(self):
        store = TreeMapStore()
        store.put("a", "x" * 1000)
        big = store.memory_used()
        store.put("a", "x")
        assert store.memory_used() < big

    def test_peak_memory(self):
        store = TreeMapStore()
        store.put("a", "y" * 500)
        peak = store.peak_memory
        store.put("a", "y")
        assert store.peak_memory == peak
        assert store.memory_used() < peak

    def test_sample_hook_called(self):
        samples = []
        store = TreeMapStore(on_sample=samples.append)
        store.put("a", 1)
        store.put("b", 2)
        store.put("a", "x" * 100)
        assert len(samples) == 3
        assert samples[2] > samples[1] > samples[0]


class TestOOM:
    def test_raises_at_heap_limit(self):
        store = TreeMapStore(heap_limit_bytes=600)
        with pytest.raises(ReducerOutOfMemoryError) as excinfo:
            for i in range(100):
                store.put(f"key-{i}", "v" * 50)
        assert excinfo.value.used_bytes > excinfo.value.limit_bytes

    def test_no_limit_never_raises(self):
        store = TreeMapStore(heap_limit_bytes=None)
        for i in range(200):
            store.put(f"key-{i}", "v" * 50)
        assert len(store) == 200


class TestKeyOrder:
    """Partials live in a hash table; order is made once, where it is read."""

    def test_wc_demo_checkpoint_bytes_are_pinned(self, tmp_path):
        # The digest was taken when the store was a red-black tree
        # (31c03622...) and re-pinned only when store files gained
        # columnar frames (890681dd...) and when int columns became
        # narrow byte planes: the one sort must write the entries, order
        # and frame cuts the in-order walk wrote.
        job, pairs = demo_job_and_input("wc", ExecutionMode.BARRIERLESS)
        store = TreeMapStore()
        reducer = job.reducer_factory()
        reducer.attach_store(store)
        reducer.run(BatchReduceContext([run_map_task(job, pairs, Counters())]))
        assert (len(store), store.peak_memory) == (319, 47212)
        store.checkpoint(str(tmp_path), meta={"app": "wc"})
        with open(checkpoint_path(str(tmp_path)), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == (
            "06cec8471d1fd3f9bd7b7482f5c1b92bafdc961159b0aaef70a22e0f02932789"
        )

    def test_unorderable_keys_raise_where_order_is_read(self, tmp_path):
        store = TreeMapStore()
        store.put(1, "int")
        store.put("a", "str")  # a hash table takes both
        assert store.get(1) == "int" and store.get("a") == "str"
        with pytest.raises(TypeError):
            store.items()
        with pytest.raises(TypeError):
            store.checkpoint(str(tmp_path))

    def test_unorderable_keys_still_fail_the_task(self):
        job, pairs = demo_job_and_input(
            "wc", ExecutionMode.BARRIERLESS, records=20, num_reducers=1
        )
        job.mapper_factory = _MixedKeyMapper
        with pytest.raises(TypeError):
            LocalEngine().run(job, pairs, num_maps=1)


class _MixedKeyMapper(Mapper):
    """Emits an int key and a str key for every input record."""

    def map(self, key, value, context) -> None:
        context.emit(1, 1)
        context.emit("a", 1)
