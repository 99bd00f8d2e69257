"""Tests for WordCount (Aggregation class, the paper's running example)."""

from __future__ import annotations

import pytest

from repro.apps.wordcount import (
    BarrierlessIntSumReducer,
    IntSumReducer,
    TokenizerMapper,
    make_job,
    merge_counts,
    reference_output,
)
from repro.core.api import BatchReduceContext, MapContext, ReduceContext
from repro.core.job import MemoryConfig
from repro.core.types import ExecutionMode, Record
from repro.memory.store import TreeMapStore


class TestTokenizerMapper:
    def test_tokenises_on_whitespace(self):
        ctx = MapContext()
        TokenizerMapper().map("doc", "the  quick\tbrown\nfox", ctx)
        assert [r.key for r in ctx.drain()] == ["the", "quick", "brown", "fox"]

    def test_empty_document(self):
        ctx = MapContext()
        TokenizerMapper().map("doc", "", ctx)
        assert ctx.drain() == []


class TestIntSumReducer:
    def test_algorithm_1_semantics(self):
        ctx = ReduceContext([("word", [1, 1, 1])])
        IntSumReducer().run(ctx)
        assert ctx.drain() == [Record("word", 3)]


class TestBarrierlessIntSumReducer:
    def test_algorithm_2_semantics(self):
        reducer = BarrierlessIntSumReducer()
        reducer.attach_store(TreeMapStore())
        records = [Record("b", 1), Record("a", 1), Record("b", 1)]
        ctx = BatchReduceContext([records])
        reducer.run(ctx)
        # Output swept from the TreeMap is in key order (Algorithm 2's
        # final loop over the TreeMap).
        assert ctx.drain() == [Record("a", 1), Record("b", 2)]

    def test_merge_counts_is_addition(self):
        assert merge_counts(3, 4) == 7


class TestWordCountJob:
    def test_reference_output(self):
        pairs = [(0, "a b a"), (1, "b")]
        assert reference_output(pairs) == {"a": 2, "b": 2}

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_end_to_end(self, mode, local_engine, small_corpus):
        result = local_engine.run(make_job(mode), small_corpus, num_maps=5)
        assert result.output_as_dict() == reference_output(small_corpus)

    def test_job_carries_merge_fn_for_spilling(self):
        job = make_job(
            ExecutionMode.BARRIERLESS,
            memory=MemoryConfig(store="spillmerge", spill_threshold_bytes=1024),
        )
        job.validate()
        assert job.merge_fn(2, 3) == 5

    def test_heavy_skew(self, local_engine):
        # One very hot key (Zipf head) plus a long tail.
        pairs = [(i, "hot " * 50 + f"tail{i}") for i in range(10)]
        result = local_engine.run(
            make_job(ExecutionMode.BARRIERLESS, num_reducers=3), pairs, num_maps=3
        )
        out = result.output_as_dict()
        assert out["hot"] == 500
        assert sum(1 for k in out if k.startswith("tail")) == 10
