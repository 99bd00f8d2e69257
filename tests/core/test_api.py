"""Unit tests for repro.core.api: contexts, grouping, combiners."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.api import (
    BatchReduceContext,
    FunctionCombiner,
    MapContext,
    ReduceContext,
    Reducer,
    group_sorted_records,
)
from repro.core.types import Record


class TestMapContext:
    def test_emit_and_drain(self):
        ctx = MapContext()
        ctx.emit("a", 1)
        ctx.emit("b", 2)
        assert ctx.drain() == [Record("a", 1), Record("b", 2)]
        assert ctx.drain() == []  # drained

    def test_counts_output_records(self):
        ctx = MapContext()
        ctx.emit("a", 1)
        ctx.emit("a", 2)
        assert ctx.counters.get("map.output_records") == 2


class TestReduceContext:
    def test_iteration_protocol(self):
        ctx = ReduceContext([("a", [1, 2]), ("b", [3])])
        assert ctx.next_key()
        assert ctx.current_key() == "a"
        assert list(ctx.current_values()) == [1, 2]
        assert ctx.next_key()
        assert ctx.current_key() == "b"
        assert not ctx.next_key()

    def test_current_before_next_raises(self):
        ctx = ReduceContext([])
        with pytest.raises(RuntimeError):
            ctx.current_key()
        with pytest.raises(RuntimeError):
            ctx.current_values()

    def test_current_after_exhaustion_raises(self):
        ctx = ReduceContext([("a", [1])])
        assert ctx.next_key()
        assert not ctx.next_key()
        with pytest.raises(RuntimeError):
            ctx.current_key()

    def test_write_and_drain(self):
        ctx = ReduceContext([])
        ctx.write("k", 9)
        assert ctx.drain() == [Record("k", 9)]
        assert ctx.counters.get("reduce.output_records") == 1


class TestGrouping:
    def test_group_sorted_records(self):
        records = [Record("a", 1), Record("a", 2), Record("b", 3)]
        groups = list(group_sorted_records(records))
        assert groups == [("a", [1, 2]), ("b", [3])]

    def test_group_empty(self):
        assert list(group_sorted_records([])) == []

    def test_group_single(self):
        assert list(group_sorted_records([Record("x", 0)])) == [("x", [0])]

    def test_batch_context_preserves_arrival_order(self):
        # Barrier-less framing: every record is its own single-value
        # group, batch after batch, empty batches skipped.
        batches = [[Record("b", 1), Record("a", 2)], [], [Record("b", 3)]]
        ctx = BatchReduceContext(batches)
        groups = []
        while ctx.next_key():
            groups.append((ctx.current_key(), ctx.current_values()))
        assert groups == [("b", [1]), ("a", [2]), ("b", [3])]
        assert not ctx.next_key()
        with pytest.raises(RuntimeError):
            ctx.current_key()

    def test_batch_context_boundary_and_record_hooks(self):
        # The source learns a batch is folded when the context comes back
        # for the next one; on_record runs before each record, so a hook
        # that raises on its n-th call stops the fold at record index n.
        log = []

        def source():
            for number, batch in enumerate([[Record(1, 1)] * 3, [Record(2, 2)] * 2]):
                yield batch
                log.append(f"folded-{number}")

        ctx = BatchReduceContext(source(), on_record=lambda: log.append("r"))
        while ctx.next_key():
            pass
        assert log == ["r", "r", "r", "folded-0", "r", "r", "folded-1"]

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=5), st.integers()),
            max_size=60,
        )
    )
    def test_grouping_conserves_values(self, pairs):
        # Grouping sorted records must preserve every value exactly once.
        records = [Record(k, v) for k, v in sorted(pairs, key=lambda p: p[0])]
        regrouped = [
            (key, value)
            for key, values in group_sorted_records(records)
            for value in values
        ]
        assert regrouped == [(r.key, r.value) for r in records]

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=5), st.integers()),
            max_size=60,
        )
    )
    def test_groups_have_unique_consecutive_keys(self, pairs):
        records = [Record(k, v) for k, v in sorted(pairs, key=lambda p: p[0])]
        keys = [key for key, _ in group_sorted_records(records)]
        assert keys == sorted(set(keys))


class TestCombiner:
    def test_function_combiner_sums(self):
        combiner = FunctionCombiner(lambda a, b: a + b)
        assert combiner.combine("k", [1, 2, 3]) == [6]

    def test_function_combiner_empty(self):
        combiner = FunctionCombiner(lambda a, b: a + b)
        assert combiner.combine("k", []) == []

    def test_function_combiner_single(self):
        combiner = FunctionCombiner(max)
        assert combiner.combine("k", [42]) == [42]


class TestDefaultReducer:
    def test_identity_run(self):
        reducer = Reducer()
        ctx = ReduceContext([("a", [1, 2]), ("b", [3])])
        reducer.run(ctx)
        assert ctx.drain() == [Record("a", 1), Record("a", 2), Record("b", 3)]
