"""Unit tests for the per-class barrier-less reducer scaffolds."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.api import ReduceContext
from repro.core.patterns import (
    AggregationReducer,
    BarrierlessReducer,
    CrossKeyWindowReducer,
    IdentityBarrierlessReducer,
    PostReductionReducer,
    RunningAggregateReducer,
    SelectionReducer,
    SortingReducer,
)
from repro.core.types import Record
from repro.core.api import BatchReduceContext
from repro.memory.store import TreeMapStore


def run_barrierless(reducer, records):
    """Drive a reducer over singleton-record groups, returning its output."""
    if isinstance(reducer, BarrierlessReducer):
        reducer.attach_store(TreeMapStore())
    ctx = BatchReduceContext([[Record(k, v) for k, v in records]])
    reducer.run(ctx)
    return [(r.key, r.value) for r in ctx.drain()]


class TestStoreAttachment:
    def test_run_without_store_raises(self):
        reducer = AggregationReducer(lambda a, b: a + b)
        ctx = ReduceContext([])
        with pytest.raises(RuntimeError, match="store"):
            reducer.run(ctx)

    def test_store_is_a_plain_attribute_once_attached(self):
        # ``reduce`` reads ``self.store`` twice per record, so after
        # ``attach_store`` it must be an instance attribute, not a
        # property call — and engines still find ``_store``.
        reducer = AggregationReducer(lambda a, b: a + b)
        with pytest.raises(RuntimeError, match="attach_store"):
            reducer.store
        assert "store" not in vars(reducer)
        store = TreeMapStore()
        reducer.attach_store(store)
        assert vars(reducer)["store"] is store is reducer._store
        assert not isinstance(
            vars(BarrierlessReducer).get("store"), property
        )
        with pytest.raises(AttributeError):
            reducer.no_such_attribute


class TestIdentity:
    def test_passthrough_in_arrival_order(self):
        out = run_barrierless(
            IdentityBarrierlessReducer(), [("b", 1), ("a", 2), ("b", 3)]
        )
        assert out == [("b", 1), ("a", 2), ("b", 3)]

    def test_no_store_needed(self):
        reducer = IdentityBarrierlessReducer()
        ctx = BatchReduceContext([[Record("x", 1)]])
        reducer.run(ctx)  # must not raise despite no attached store
        assert ctx.drain() == [Record("x", 1)]


class TestAggregation:
    def test_sums_per_key_sorted_output(self):
        out = run_barrierless(
            AggregationReducer(lambda a, b: a + b, 0),
            [("b", 1), ("a", 2), ("b", 3), ("a", 5)],
        )
        assert out == [("a", 7), ("b", 4)]

    def test_product_aggregation(self):
        out = run_barrierless(
            AggregationReducer(lambda a, b: a * b, 1), [("x", 3), ("x", 4)]
        )
        assert out == [("x", 12)]

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(-50, 50)), max_size=80))
    def test_matches_dict_fold(self, pairs):
        expected: dict[int, int] = {}
        for k, v in pairs:
            expected[k] = expected.get(k, 0) + v
        out = dict(run_barrierless(AggregationReducer(lambda a, b: a + b, 0), pairs))
        assert out == expected


class TestSelection:
    def test_keeps_k_smallest(self):
        reducer = SelectionReducer(k=2, score=lambda v: v)
        out = run_barrierless(reducer, [("a", 5), ("a", 1), ("a", 3), ("a", 0)])
        assert out == [("a", 0), ("a", 1)]

    def test_keeps_k_largest(self):
        reducer = SelectionReducer(k=2, score=lambda v: v, largest=True)
        out = run_barrierless(reducer, [("a", 5), ("a", 1), ("a", 9), ("a", 3)])
        assert out == [("a", 9), ("a", 5)]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            SelectionReducer(k=0, score=lambda v: v)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=50))
    def test_running_topk_equals_sorted_topk(self, values):
        k = 5
        reducer = SelectionReducer(k=k, score=lambda v: v)
        out = run_barrierless(reducer, [("key", v) for v in values])
        assert [v for _, v in out] == sorted(values)[:k]


class _UniqueCount(PostReductionReducer):
    def make_structure(self, key):
        return frozenset()

    def accumulate(self, structure, value):
        return structure | {value}

    def post_process(self, key, structure):
        return len(structure)


class TestPostReduction:
    def test_unique_counting(self):
        out = run_barrierless(_UniqueCount(), [("t", "u1"), ("t", "u2"), ("t", "u1")])
        assert out == [("t", 2)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=60
        )
    )
    def test_matches_set_semantics(self, pairs):
        expected: dict[int, set[int]] = {}
        for k, v in pairs:
            expected.setdefault(k, set()).add(v)
        out = dict(run_barrierless(_UniqueCount(), pairs))
        assert out == {k: len(s) for k, s in expected.items()}


class _SumWindow(CrossKeyWindowReducer):
    def process_window(self, window):
        yield "sum", sum(v for _, v in window)


class TestCrossKeyWindow:
    def test_window_fires_when_full(self):
        reducer = _SumWindow(window_size=2)
        out = run_barrierless(reducer, [(1, 10), (2, 20), (3, 30), (4, 40)])
        assert out == [("sum", 30), ("sum", 70)]

    def test_residual_window_flushed_at_end(self):
        reducer = _SumWindow(window_size=3)
        out = run_barrierless(reducer, [(1, 1), (2, 2), (3, 3), (4, 4)])
        assert out == [("sum", 6), ("sum", 4)]

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            _SumWindow(window_size=0)

    @given(st.lists(st.integers(-9, 9), max_size=50), st.integers(1, 7))
    def test_all_values_processed_exactly_once(self, values, window):
        reducer = _SumWindow(window_size=window)
        out = run_barrierless(reducer, [(i, v) for i, v in enumerate(values)])
        assert sum(v for _, v in out) == sum(values)


class _CountingAggregate(RunningAggregateReducer):
    def initial_state(self):
        return 0

    def update(self, state, key, value):
        return state + value

    def finish(self, state):
        yield "total", state


class TestRunningAggregate:
    def test_total_over_all_keys(self):
        out = run_barrierless(_CountingAggregate(), [("a", 1), ("b", 2), ("c", 3)])
        assert out == [("total", 6)]

    def test_empty_input(self):
        out = run_barrierless(_CountingAggregate(), [])
        assert out == [("total", 0)]


class TestSortingReducer:
    def test_emits_sorted_with_multiplicity(self):
        out = run_barrierless(SortingReducer(), [(3, 3), (1, 1), (3, 3), (2, 2)])
        assert out == [(1, 1), (2, 2), (3, 3), (3, 3)]

    @given(st.lists(st.integers(-20, 20), max_size=60))
    def test_equals_builtin_sort(self, keys):
        out = run_barrierless(SortingReducer(), [(k, k) for k in keys])
        assert [k for k, _ in out] == sorted(keys)
