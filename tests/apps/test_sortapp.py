"""Tests for the Sort application (Sorting class)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sortapp import RangePartitioner, make_job, reference_output
from repro.core.job import MemoryConfig
from repro.core.types import ExecutionMode
from repro.engine.local import LocalEngine
from repro.workloads.ints import generate_sort_records, is_sorted_output


class TestRangePartitioner:
    def test_ordering_across_partitions(self):
        part = RangePartitioner(1000)
        assert part(0, 4) == 0
        assert part(999, 4) == 3
        assert part(250, 4) <= part(500, 4) <= part(750, 4)

    def test_out_of_range_clamps(self):
        part = RangePartitioner(100)
        assert part(-5, 4) == 0
        assert part(1_000_000, 4) == 3

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            RangePartitioner(0)

    @given(st.integers(0, 999), st.integers(1, 16))
    def test_property_monotone(self, key, n):
        part = RangePartitioner(1000)
        assert part(key, n) <= part(min(999, key + 1), n)


class TestSortJob:
    def test_barrier_sort(self, local_engine):
        records = generate_sort_records(200, key_range=500, seed=1)
        result = local_engine.run(
            make_job(ExecutionMode.BARRIER, num_reducers=4), records, num_maps=4
        )
        assert [(r.key, r.value) for r in result.all_output()] == reference_output(
            records
        )

    def test_barrierless_sort(self, local_engine):
        records = generate_sort_records(200, key_range=500, seed=2)
        result = local_engine.run(
            make_job(ExecutionMode.BARRIERLESS, num_reducers=4), records, num_maps=4
        )
        out = [(r.key, r.value) for r in result.all_output()]
        assert out == reference_output(records)
        assert is_sorted_output(out)

    def test_duplicates_preserved(self, local_engine):
        records = [(7, 7)] * 5 + [(3, 3)] * 2
        result = local_engine.run(
            make_job(ExecutionMode.BARRIERLESS, num_reducers=2), records, num_maps=2
        )
        keys = [r.key for r in result.all_output()]
        assert keys == [3, 3, 7, 7, 7, 7, 7]

    def test_duplicates_use_counts_not_copies(self, local_engine):
        # §6.1.1: duplicate values must not consume extra memory.  A store
        # holding counts keeps one entry however many duplicates arrive.
        from repro.apps.sortapp import BarrierlessSortReducer
        from repro.core.api import BatchReduceContext
        from repro.core.types import Record
        from repro.memory.store import TreeMapStore

        reducer = BarrierlessSortReducer()
        store = TreeMapStore()
        reducer.attach_store(store)
        ctx = BatchReduceContext([[Record(5, 5)] * 100])
        reducer.run(ctx)
        assert len(store) == 1
        assert len(ctx.drain()) == 100

    def test_spillmerge_sort(self, local_engine):
        records = generate_sort_records(300, key_range=200, seed=3)
        job = make_job(
            ExecutionMode.BARRIERLESS,
            num_reducers=2,
            memory=MemoryConfig(store="spillmerge", spill_threshold_bytes=1024),
        )
        result = local_engine.run(job, records, num_maps=4)
        out = [(r.key, r.value) for r in result.all_output()]
        assert out == reference_output(records)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 99_999), max_size=80))
def test_property_both_modes_agree(keys):
    records = [(k, k) for k in keys]
    engine = LocalEngine()
    results = {}
    for mode in ExecutionMode:
        result = engine.run(make_job(mode, num_reducers=3), records, num_maps=3)
        results[mode] = [(r.key, r.value) for r in result.all_output()]
    assert results[ExecutionMode.BARRIER] == results[ExecutionMode.BARRIERLESS]
    assert results[ExecutionMode.BARRIER] == sorted(((k, k) for k in keys))
