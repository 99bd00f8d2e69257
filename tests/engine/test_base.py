"""Tests for shared engine machinery (map tasks, partitioning, shuffle)."""

from __future__ import annotations

import pytest

from repro.core.api import FunctionCombiner, Mapper
from repro.core.job import JobSpec
from repro.core.types import Counters, ExecutionMode, Record
from repro.core.patterns import AggregationReducer
from repro.engine.base import (
    BATCH_RECORDS,
    apply_combiner,
    barrier_merge_sort,
    innermost_store,
    interleave_arrival,
    partition_records,
    prepare_reducer,
    run_map_task,
    run_reduce_task,
)
from repro.memory import WriteBackStore
from repro.memory.spill import SpillMergeStore
from repro.memory.store import TreeMapStore


class WordMapper(Mapper):
    def map(self, key, value, context):
        for word in value.split():
            context.emit(word, 1)


def _wc_spec(**overrides) -> JobSpec:
    config = dict(
        name="wc",
        mapper_factory=WordMapper,
        reducer_factory=lambda: AggregationReducer(lambda a, b: a + b, 0),
        num_reducers=3,
        mode=ExecutionMode.BARRIERLESS,
    )
    config.update(overrides)
    return JobSpec(**config)


class TestRunMapTask:
    def test_emits_and_counts(self):
        counters = Counters()
        records = run_map_task(_wc_spec(), [(0, "a b a")], counters)
        assert records == [Record("a", 1), Record("b", 1), Record("a", 1)]
        assert counters.get("map.input_records") == 1
        assert counters.get("map.output_records") == 3

    def test_combiner_collapses_per_task(self):
        spec = _wc_spec(
            combiner_factory=lambda: FunctionCombiner(lambda a, b: a + b)
        )
        counters = Counters()
        records = run_map_task(spec, [(0, "a b a a")], counters)
        assert sorted((r.key, r.value) for r in records) == [("a", 3), ("b", 1)]
        assert counters.get("combine.output_records") == 2


class TestApplyCombiner:
    def test_preserves_first_seen_key_order(self):
        spec = _wc_spec(combiner_factory=lambda: FunctionCombiner(max))
        records = [Record("b", 1), Record("a", 5), Record("b", 9)]
        combined = apply_combiner(spec, records, Counters())
        assert combined == [Record("b", 9), Record("a", 5)]


class TestPartitionRecords:
    def test_all_partitions_present(self):
        partitions = partition_records(_wc_spec(), [])
        assert set(partitions) == {0, 1, 2}

    def test_same_key_same_partition(self):
        records = [Record("hot", i) for i in range(10)]
        partitions = partition_records(_wc_spec(), records)
        non_empty = [p for p, rs in partitions.items() if rs]
        assert len(non_empty) == 1
        assert len(partitions[non_empty[0]]) == 10

    def test_conserves_records(self):
        records = [Record(f"k{i}", i) for i in range(100)]
        partitions = partition_records(_wc_spec(), records)
        assert sum(len(rs) for rs in partitions.values()) == 100


class TestShuffleVariants:
    def test_barrier_merge_sort_sorts_by_key(self):
        outputs = [[Record("c", 1)], [Record("a", 2), Record("b", 3)]]
        merged = barrier_merge_sort(outputs)
        assert [r.key for r in merged] == ["a", "b", "c"]

    def test_barrier_merge_sort_stable_within_key(self):
        outputs = [[Record("k", "first")], [Record("k", "second")]]
        merged = barrier_merge_sort(outputs)
        assert [r.value for r in merged] == ["first", "second"]

    def test_interleave_preserves_mapper_order(self):
        outputs = [[Record("z", 1)], [Record("a", 2)]]
        stream = interleave_arrival(outputs)
        assert [r.key for r in stream] == ["z", "a"]  # not sorted


class TestPrepareReducer:
    def test_attaches_store_from_memory_config(self):
        reducer = prepare_reducer(_wc_spec())
        assert isinstance(reducer.store, WriteBackStore)
        assert isinstance(innermost_store(reducer.store), TreeMapStore)

    def test_honours_custom_store_factory(self):
        spec = _wc_spec(
            store_factory=lambda: SpillMergeStore(
                lambda a, b: a + b, spill_threshold_bytes=1024
            )
        )
        reducer = prepare_reducer(spec)
        assert isinstance(innermost_store(reducer.store), SpillMergeStore)

    def test_barrier_mode_store_has_no_write_back(self):
        # Nothing flushes a barrier-mode reducer at batch boundaries, so
        # a store-backed reducer run with the barrier gets the bare store.
        reducer = prepare_reducer(_wc_spec(mode=ExecutionMode.BARRIER))
        assert isinstance(reducer.store, TreeMapStore)

    def test_plain_reducer_gets_no_store(self):
        from repro.core.api import Reducer

        spec = _wc_spec(reducer_factory=Reducer)
        reducer = prepare_reducer(spec)
        assert not hasattr(reducer, "store")


class _CountingProxy:
    """A ``store_factory`` proxy in stagebench's shape: ``_inner`` + puts."""

    def __init__(self, inner):
        self._inner = inner
        self.puts = 0

    def put(self, key, value):
        self.puts += 1
        self._inner.put(key, value)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestBatchNativeReduce:
    def test_real_puts_equal_distinct_keys_per_batch(self):
        # 600 records over 7 keys: three slices (256, 256, 88), so the
        # store behind the write-back sees one put per distinct key per
        # slice instead of two per record.
        proxies = []

        def factory():
            proxies.append(_CountingProxy(TreeMapStore()))
            return proxies[-1]

        records = [Record(f"k{i % 7}", 1) for i in range(600)]
        batches = [
            records[start : start + BATCH_RECORDS]
            for start in range(0, len(records), BATCH_RECORDS)
        ]
        out = run_reduce_task(
            _wc_spec(store_factory=factory), iter(records), Counters()
        )
        assert {r.key: r.value for r in out} == {
            f"k{i}": len(range(i, 600, 7)) for i in range(7)
        }
        (proxy,) = proxies
        assert proxy.puts == sum(len({r.key for r in b}) for b in batches) == 21

    def test_heap_limit_trips_at_most_one_batch_late(self):
        from repro.core.job import MemoryConfig
        from repro.core.types import ReducerOutOfMemoryError

        limit = 10_000
        records = [Record(f"word-{i:05d}", 1) for i in range(3 * BATCH_RECORDS)]
        # Record-at-a-time against the bare store: where the limit trips.
        bare = TreeMapStore(heap_limit_bytes=limit)
        with pytest.raises(ReducerOutOfMemoryError):
            for tripped_at, record in enumerate(records):
                bare.put(record.key, 0)
                bare.put(record.key, bare.get(record.key) + 1)
        assert 0 < tripped_at < BATCH_RECORDS

        pulled = []

        def stream():
            for record in records:
                pulled.append(record)
                yield record

        spec = _wc_spec(
            memory=MemoryConfig(store="inmemory", heap_limit_bytes=limit)
        )
        with pytest.raises(ReducerOutOfMemoryError):
            run_reduce_task(spec, stream(), Counters())
        # Raised by the write-back of the batch that crossed the limit.
        assert len(pulled) == BATCH_RECORDS

    def test_store_counters_survive_any_number_of_wrappers(self):
        # write-back -> proxy -> spill store: the spill statistics live
        # two levels down and must still be harvested.
        spec = _wc_spec(
            store_factory=lambda: _CountingProxy(
                SpillMergeStore(lambda a, b: a + b, spill_threshold_bytes=512)
            )
        )
        counters = Counters()
        records = [Record(f"k{i:04d}", 1) for i in range(400)]
        out = run_reduce_task(spec, records, counters)
        assert len(out) == 400
        assert counters.get("store.spills") > 0
        assert counters.get("memory.spill.files") == counters.get("store.spills")
        assert counters.get("memory.spill.bytes") > 0
