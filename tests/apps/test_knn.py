"""Tests for k-Nearest Neighbors (Selection class)."""

from __future__ import annotations

import pytest

from repro.apps.knn import (
    KnnBarrierReducer,
    KnnBarrierlessReducer,
    KnnMapper,
    make_job,
    merge_topk,
    training_pairs,
)
from repro.core.api import BatchReduceContext, MapContext, ReduceContext
from repro.core.types import ExecutionMode, Record
from repro.engine.local import LocalEngine
from repro.memory.store import TreeMapStore
from repro.workloads.points import brute_force_knn, generate_knn_dataset


class TestKnnMapper:
    def test_emits_distance_per_experimental_value(self):
        ctx = MapContext()
        KnnMapper([100, 200]).map(0, 150, ctx)
        emitted = {(r.key, r.value) for r in ctx.drain()}
        assert emitted == {(100, (150, 50)), (200, (150, 50))}


class TestReducers:
    def test_barrier_reducer_sorts_and_truncates(self):
        ctx = ReduceContext([(7, [(10, 3), (20, 13), (8, 1)])])
        KnnBarrierReducer(k=2).run(ctx)
        assert [r.value for r in ctx.drain()] == [(8, 1), (10, 3)]

    def test_barrierless_running_topk(self):
        reducer = KnnBarrierlessReducer(k=2)
        reducer.attach_store(TreeMapStore())
        records = [Record(7, (10, 3)), Record(7, (20, 13)), Record(7, (8, 1))]
        ctx = BatchReduceContext([records])
        reducer.run(ctx)
        assert [r.value for r in ctx.drain()] == [(8, 1), (10, 3)]

    def test_ties_keep_arrival_order(self):
        reducer = KnnBarrierlessReducer(k=2)
        reducer.attach_store(TreeMapStore())
        records = [Record(0, ("first", 5)), Record(0, ("second", 5))]
        ctx = BatchReduceContext([records])
        reducer.run(ctx)
        assert [r.value[0] for r in ctx.drain()] == ["first", "second"]

    def test_merge_topk(self):
        a = [(1, 1), (2, 5)]
        b = [(3, 2), (4, 9)]
        assert merge_topk(a, b, k=3) == [(1, 1), (3, 2), (2, 5)]


class TestEndToEnd:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_matches_brute_force(self, mode):
        experimental, training = generate_knn_dataset(5, 120, seed=4)
        job = make_job(mode, experimental, k=3, num_reducers=2)
        result = LocalEngine().run(job, training_pairs(training), num_maps=3)
        reference = brute_force_knn(experimental, training, 3)
        got: dict[int, list] = {}
        for record in result.all_output():
            got.setdefault(record.key, []).append(record.value)
        assert set(got) == set(reference)
        for key in reference:
            assert sorted(d for _, d in got[key]) == sorted(
                d for _, d in reference[key]
            ), key

    def test_every_experimental_value_gets_k_neighbors(self):
        experimental, training = generate_knn_dataset(8, 60, seed=5)
        job = make_job(ExecutionMode.BARRIERLESS, experimental, k=4, num_reducers=3)
        result = LocalEngine().run(job, training_pairs(training), num_maps=4)
        counts: dict[int, int] = {}
        for record in result.all_output():
            counts[record.key] = counts.get(record.key, 0) + 1
        assert counts == {value: 4 for value in experimental}

    def test_fewer_training_values_than_k(self):
        job = make_job(ExecutionMode.BARRIERLESS, [500], k=10, num_reducers=1)
        result = LocalEngine().run(job, training_pairs([100, 900]), num_maps=1)
        assert len(result.all_output()) == 2


class TestSecondarySort:
    def test_secondary_sort_matches_in_reducer_sort(self):
        experimental, training = generate_knn_dataset(6, 100, seed=9)
        pairs = training_pairs(training)
        engine = LocalEngine()
        with_ss = engine.run(
            make_job(ExecutionMode.BARRIER, experimental, k=4, secondary_sort=True),
            pairs, num_maps=3,
        )
        without_ss = engine.run(
            make_job(ExecutionMode.BARRIER, experimental, k=4, secondary_sort=False),
            pairs, num_maps=3,
        )
        def distances(result):
            got = {}
            for record in result.all_output():
                got.setdefault(record.key, []).append(record.value[1])
            return {k: sorted(v) for k, v in got.items()}
        assert distances(with_ss) == distances(without_ss)

    def test_framework_delivers_distance_ordered_groups(self):
        from repro.apps.knn import KnnSecondarySortReducer
        # With secondary sort the reducer takes the FIRST k values, so a
        # correct result proves the framework ordered the group.
        experimental, training = generate_knn_dataset(4, 80, seed=10)
        job = make_job(ExecutionMode.BARRIER, experimental, k=3)
        assert isinstance(job.reducer_factory(), KnnSecondarySortReducer)
        assert job.value_sort_key is not None
        result = LocalEngine().run(job, training_pairs(training), num_maps=2)
        reference = brute_force_knn(experimental, training, 3)
        for record in result.all_output():
            ref_dists = [d for _, d in reference[record.key]]
            assert record.value[1] <= max(ref_dists)

    def test_barrierless_ignores_secondary_sort_flag(self):
        job = make_job(ExecutionMode.BARRIERLESS, [5], k=2, secondary_sort=True)
        assert job.value_sort_key is None
