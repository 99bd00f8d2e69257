"""Tests for the threaded pipelined engine (§3.1 structure)."""

from __future__ import annotations

import pytest

from repro.apps import lastfm, wordcount
from repro.core.types import ExecutionMode
from repro.engine.recovery import FetchFaultInjector, RecoveryConfig
from repro.engine.threaded import ThreadedEngine
from repro.workloads.listens import generate_listens, unique_listens_reference


class TestThreadedEngine:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_wordcount_matches_reference(self, mode, small_corpus):
        engine = ThreadedEngine(map_slots=3)
        result = engine.run(wordcount.make_job(mode), small_corpus, num_maps=6)
        assert result.output_as_dict() == wordcount.reference_output(small_corpus)

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_matches_local_engine(self, mode, local_engine, small_corpus):
        job = wordcount.make_job(mode, num_reducers=3)
        threaded = ThreadedEngine(map_slots=2).run(job, small_corpus, num_maps=5)
        local = local_engine.run(job, small_corpus, num_maps=5)
        assert threaded.output_as_dict() == local.output_as_dict()

    def test_output_is_keyed_in_reducer_order(self, local_engine, small_corpus):
        # Reducer 0's first fetch stalls inside the fetch timeout, so
        # reducer 1 commits first; the result is still keyed 0, 1 like
        # LocalEngine's.
        job = wordcount.make_job(ExecutionMode.BARRIERLESS, num_reducers=2)
        engine = ThreadedEngine(
            map_slots=2,
            fetch_injector=FetchFaultInjector(
                stall_first_fetch_of=frozenset({(0, 0)}), stall_seconds=0.2
            ),
            recovery=RecoveryConfig(fetch_timeout_s=1.0),
        )
        result = engine.run(job, small_corpus, num_maps=3)
        ends = {s.name: s.end for s in engine.obs.tracer.spans("task")}
        assert ends["reduce-1"] < ends["reduce-0"]
        assert list(result.output) == sorted(result.output) == [0, 1]
        assert result.output == local_engine.run(job, small_corpus, num_maps=3).output

    def test_more_slots_than_tasks(self, small_corpus):
        engine = ThreadedEngine(map_slots=16)
        result = engine.run(
            wordcount.make_job(ExecutionMode.BARRIERLESS), small_corpus, num_maps=2
        )
        assert result.output_as_dict() == wordcount.reference_output(small_corpus)

    def test_single_slot_serialises_maps(self, small_corpus):
        engine = ThreadedEngine(map_slots=1)
        result = engine.run(
            wordcount.make_job(ExecutionMode.BARRIER), small_corpus, num_maps=4
        )
        assert result.counters.get("map.tasks") == 4

    def test_rejects_bad_slots(self):
        with pytest.raises(ValueError):
            ThreadedEngine(map_slots=0)

    # The stage record of a real run is its trace: task spans per map and
    # reduce task, the attempt's phases as op spans under them.

    def test_trace_records_stages_barrier(self, small_corpus):
        engine = ThreadedEngine(map_slots=2)
        engine.run(
            wordcount.make_job(ExecutionMode.BARRIER, num_reducers=2),
            small_corpus,
            num_maps=3,
        )
        tasks = [span.name for span in engine.obs.tracer.spans("task")]
        ops = [span.name for span in engine.obs.tracer.spans("op")]
        assert sorted(tasks) == [
            "map-0", "map-1", "map-2", "reduce-0", "reduce-1",
        ]
        assert {"shuffle", "sort", "reduce"} <= set(ops)
        assert ops.count("reduce") == 2

    def test_trace_records_stages_barrierless(self, small_corpus):
        engine = ThreadedEngine(map_slots=2)
        engine.run(
            wordcount.make_job(ExecutionMode.BARRIERLESS, num_reducers=2),
            small_corpus,
            num_maps=3,
        )
        ops = {span.name for span in engine.obs.tracer.spans("op")}
        assert "shuffle+reduce" in ops
        assert "sort" not in ops  # no sort stage without the barrier

    def test_clean_run_builds_no_spare_reducers(self, small_corpus):
        # One reducer per task, plus the checkpoint gate's single probe
        # when checkpointing is on.  The store-backed question
        # (``store.resets``) is only asked once an attempt was retried,
        # so a clean run no longer pays a second throw-away reducer.
        import dataclasses

        from repro.engine.recovery import RecoveryConfig
        from repro.memory.checkpoint import CheckpointPolicy

        job = wordcount.make_job(ExecutionMode.BARRIERLESS, num_reducers=2)
        built = []

        def counting_factory():
            built.append(1)
            return job.reducer_factory()

        counted = dataclasses.replace(job, reducer_factory=counting_factory)
        ThreadedEngine(map_slots=2).run(counted, small_corpus, num_maps=3)
        assert len(built) == 2
        del built[:]
        checkpointing = RecoveryConfig(checkpoint=CheckpointPolicy(every_records=50))
        ThreadedEngine(map_slots=2, recovery=checkpointing).run(
            counted, small_corpus, num_maps=3
        )
        assert len(built) == 3

    def test_mapper_error_propagates(self):
        from repro.core.api import Mapper
        from repro.core.job import JobSpec
        from repro.core.api import Reducer

        class FailingMapper(Mapper):
            def map(self, key, value, context):
                raise RuntimeError("boom")

        job = JobSpec(
            name="fails",
            mapper_factory=FailingMapper,
            reducer_factory=Reducer,
            num_reducers=1,
            mode=ExecutionMode.BARRIER,
        )
        with pytest.raises(RuntimeError, match="boom"):
            ThreadedEngine(map_slots=2).run(job, [(0, "x")], num_maps=1)

    def test_pipelined_lastfm(self):
        listens = generate_listens(600, num_users=10, num_tracks=50, seed=5)
        job = lastfm.make_job(ExecutionMode.BARRIERLESS, num_reducers=3)
        result = ThreadedEngine(map_slots=3).run(job, listens, num_maps=6)
        assert result.output_as_dict() == unique_listens_reference(listens)

    def test_stage_times_monotone(self, small_corpus):
        engine = ThreadedEngine(map_slots=2)
        result = engine.run(
            wordcount.make_job(ExecutionMode.BARRIERLESS), small_corpus, num_maps=4
        )
        st = result.stage_times
        assert st.first_map_done <= st.last_map_done <= st.job_done + 1e-9
