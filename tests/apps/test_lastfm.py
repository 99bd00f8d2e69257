"""Tests for Last.fm unique listens (Post-reduction processing class)."""

from __future__ import annotations

import pytest

from repro.apps.lastfm import (
    BarrierlessUniqueListensReducer,
    ListenMapper,
    UniqueListensReducer,
    make_job,
    merge_user_sets,
)
from repro.core.api import BatchReduceContext, MapContext, ReduceContext
from repro.core.job import MemoryConfig
from repro.core.types import ExecutionMode, Record
from repro.engine.local import LocalEngine
from repro.memory.store import TreeMapStore
from repro.workloads.listens import generate_listens, unique_listens_reference


class TestMapper:
    def test_emits_track_user(self):
        ctx = MapContext()
        ListenMapper().map(0, ("track1", "alice"), ctx)
        assert ctx.drain() == [Record("track1", "alice")]


class TestReducers:
    def test_barrier_counts_unique(self):
        ctx = ReduceContext([("t", ["u1", "u2", "u1", "u3", "u2"])])
        UniqueListensReducer().run(ctx)
        assert ctx.drain() == [Record("t", 3)]

    def test_barrierless_counts_unique(self):
        reducer = BarrierlessUniqueListensReducer()
        reducer.attach_store(TreeMapStore())
        records = [Record("t", u) for u in ["u1", "u2", "u1"]]
        ctx = BatchReduceContext([records])
        reducer.run(ctx)
        assert ctx.drain() == [Record("t", 2)]

    def test_merge_user_sets_union(self):
        assert merge_user_sets(frozenset({"a"}), frozenset({"a", "b"})) == {
            "a",
            "b",
        }


class TestEndToEnd:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_matches_reference(self, mode):
        listens = generate_listens(700, num_users=12, num_tracks=40, seed=2)
        result = LocalEngine().run(make_job(mode), listens, num_maps=4)
        assert result.output_as_dict() == unique_listens_reference(listens)

    def test_unique_count_bounded_by_user_population(self):
        listens = generate_listens(5000, num_users=7, num_tracks=10, seed=8)
        result = LocalEngine().run(
            make_job(ExecutionMode.BARRIERLESS), listens, num_maps=5
        )
        assert all(1 <= v <= 7 for v in result.output_as_dict().values())

    def test_spillmerge_union_across_spills(self):
        # Partial user sets spilled to different files must merge by union.
        listens = generate_listens(800, num_users=20, num_tracks=15, seed=6)
        job = make_job(
            ExecutionMode.BARRIERLESS,
            num_reducers=2,
            memory=MemoryConfig(store="spillmerge", spill_threshold_bytes=2048),
        )
        result = LocalEngine().run(job, listens, num_maps=5)
        assert result.output_as_dict() == unique_listens_reference(listens)
