"""Tests for the deterministic LocalEngine."""

from __future__ import annotations

import pytest

from repro.apps import wordcount
from repro.core.job import JobSpec, MemoryConfig
from repro.core.types import ExecutionMode, JobFailedError, ReducerOutOfMemoryError
from repro.engine.local import LocalEngine
from repro.workloads.text import generate_documents


class TestLocalEngine:
    def test_barrier_wordcount(self, local_engine, small_corpus):
        result = local_engine.run(
            wordcount.make_job(ExecutionMode.BARRIER), small_corpus, num_maps=4
        )
        assert result.output_as_dict() == wordcount.reference_output(small_corpus)

    def test_barrierless_wordcount(self, local_engine, small_corpus):
        result = local_engine.run(
            wordcount.make_job(ExecutionMode.BARRIERLESS), small_corpus, num_maps=4
        )
        assert result.output_as_dict() == wordcount.reference_output(small_corpus)

    def test_deterministic_across_runs(self, local_engine, small_corpus):
        job = wordcount.make_job(ExecutionMode.BARRIERLESS)
        first = local_engine.run(job, small_corpus, num_maps=4)
        second = local_engine.run(job, small_corpus, num_maps=4)
        assert first.all_output() == second.all_output()

    def test_output_independent_of_map_count(self, local_engine, small_corpus):
        job = wordcount.make_job(ExecutionMode.BARRIERLESS)
        results = {
            n: local_engine.run(job, small_corpus, num_maps=n).output_as_dict()
            for n in (1, 3, 8)
        }
        assert results[1] == results[3] == results[8]

    def test_counters_populated(self, local_engine, small_corpus):
        result = local_engine.run(
            wordcount.make_job(ExecutionMode.BARRIER), small_corpus, num_maps=5
        )
        assert result.counters.get("map.tasks") == 5
        assert result.counters.get("reduce.tasks") == 4
        assert result.counters.get("map.output_records") > 0
        assert result.counters.get("shuffle.records") == result.counters.get(
            "map.output_records"
        )

    def test_empty_input(self, local_engine):
        result = local_engine.run(
            wordcount.make_job(ExecutionMode.BARRIER), [], num_maps=4
        )
        assert result.all_output() == []

    def test_validates_job(self, local_engine):
        job = wordcount.make_job(ExecutionMode.BARRIER)
        job.num_reducers = 0
        with pytest.raises(Exception):
            local_engine.run(job, [("d", "a b")], num_maps=1)

    def test_heap_sample_hook_receives_reducer_index(self, small_corpus):
        samples: list[tuple[int, int]] = []
        engine = LocalEngine(heap_sample_hook=lambda i, used: samples.append((i, used)))
        engine.run(
            wordcount.make_job(ExecutionMode.BARRIERLESS, num_reducers=2),
            small_corpus,
            num_maps=3,
        )
        reducer_ids = {i for i, _ in samples}
        assert reducer_ids == {0, 1}
        assert all(used >= 0 for _, used in samples)

    def test_oom_propagates_as_job_failure(self, local_engine):
        docs = generate_documents(40, words_per_doc=60, vocab_size=5000, seed=3)
        job = wordcount.make_job(
            ExecutionMode.BARRIERLESS,
            num_reducers=1,
            memory=MemoryConfig(store="inmemory", heap_limit_bytes=10_000),
        )
        with pytest.raises(ReducerOutOfMemoryError):
            local_engine.run(job, docs, num_maps=4)

    def test_oom_and_heap_samples_fire_at_the_batch_write_back(self):
        # The heap model sits behind the batch write-back: the store is
        # charged (and sampled) once per distinct key when a batch is
        # written back, so the limit trips inside the first write-back
        # that crosses it — never later than the end of that batch.
        docs = generate_documents(40, words_per_doc=60, vocab_size=5000, seed=3)
        limit = 10_000
        job = wordcount.make_job(
            ExecutionMode.BARRIERLESS,
            num_reducers=1,
            memory=MemoryConfig(store="inmemory", heap_limit_bytes=limit),
        )
        samples: list[int] = []
        engine = LocalEngine(heap_sample_hook=lambda _i, used: samples.append(used))
        with pytest.raises(ReducerOutOfMemoryError) as caught:
            engine.run(job, docs, num_maps=4)
        # One sample per real put, strictly growing (all keys of the first
        # 256-record batch are new), and every one at or under the limit:
        # the put that crossed it raised instead of sampling.
        assert samples == sorted(set(samples)) and samples[-1] <= limit
        assert len(samples) < 256
        assert limit < caught.value.used_bytes < limit + 200

    def test_stage_times_monotone(self, local_engine, small_corpus):
        result = local_engine.run(
            wordcount.make_job(ExecutionMode.BARRIER), small_corpus, num_maps=4
        )
        st = result.stage_times
        assert 0.0 <= st.map_start <= st.first_map_done <= st.last_map_done
        assert st.last_map_done <= st.reduce_done <= st.job_done
