"""Unit tests for JobSpec, MemoryConfig and input splitting."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.api import Mapper, Reducer
from repro.core.job import JobSpec, MemoryConfig, split_input
from repro.core.types import ExecutionMode, InvalidJobError


class _NoopMapper(Mapper):
    def map(self, key, value, context):
        pass


def _spec(**overrides) -> JobSpec:
    config = dict(
        name="t",
        mapper_factory=_NoopMapper,
        reducer_factory=Reducer,
        num_reducers=2,
    )
    config.update(overrides)
    return JobSpec(**config)


class TestMemoryConfig:
    def test_default_is_valid(self):
        MemoryConfig().validate()

    def test_unknown_store_rejected(self):
        with pytest.raises(InvalidJobError):
            MemoryConfig(store="redis").validate()

    @pytest.mark.parametrize(
        "field", ["heap_limit_bytes", "spill_threshold_bytes", "kv_cache_bytes"]
    )
    def test_nonpositive_limits_rejected(self, field):
        with pytest.raises(InvalidJobError):
            MemoryConfig(**{field: 0}).validate()


class TestJobSpec:
    def test_valid_spec(self):
        _spec().validate()

    def test_rejects_zero_reducers(self):
        with pytest.raises(InvalidJobError):
            _spec(num_reducers=0).validate()

    def test_rejects_noncallable_factories(self):
        with pytest.raises(InvalidJobError):
            _spec(mapper_factory="not-callable").validate()

    def test_spillmerge_requires_merge_fn(self):
        spec = _spec(memory=MemoryConfig(store="spillmerge"))
        with pytest.raises(InvalidJobError):
            spec.validate()
        _spec(
            memory=MemoryConfig(store="spillmerge"), merge_fn=lambda a, b: a + b
        ).validate()



class TestSplitInput:
    def test_even_split(self):
        splits = split_input([(i, i) for i in range(10)], 5)
        assert [len(s) for s in splits] == [2, 2, 2, 2, 2]

    def test_uneven_split_front_loaded(self):
        splits = split_input([(i, i) for i in range(7)], 3)
        assert [len(s) for s in splits] == [3, 2, 2]

    def test_more_splits_than_items_drops_empties(self):
        splits = split_input([(1, 1), (2, 2)], 6)
        assert [len(s) for s in splits] == [1, 1]

    def test_empty_input(self):
        assert split_input([], 4) == []

    def test_rejects_zero_splits(self):
        with pytest.raises(InvalidJobError):
            split_input([(1, 1)], 0)

    @given(
        st.lists(st.tuples(st.integers(), st.integers()), max_size=100),
        st.integers(min_value=1, max_value=20),
    )
    def test_property_splits_partition_the_input(self, pairs, n):
        splits = split_input(pairs, n)
        # Concatenation restores the input exactly (order-preserving).
        flattened = [pair for split in splits for pair in split]
        assert flattened == list(pairs)
        # No split is empty and sizes differ by at most one.
        if pairs:
            sizes = [len(s) for s in splits]
            assert min(sizes) >= 1
            assert max(sizes) - min(sizes) <= 1
