"""Tests for the simulated Hadoop: invariants and §6 behaviours."""

from __future__ import annotations

import pytest

from repro.analysis.timeline import stage_spans
from repro.core.types import ExecutionMode
from repro.sim.cluster import ClusterSpec
from repro.sim.hadoop import HadoopSimulator, MemoryTechnique, improvement_percent
from repro.sim.workload import (
    blackscholes_profile,
    genetic_profile,
    sort_profile,
    wordcount_profile,
)


@pytest.fixture(scope="module")
def sim() -> HadoopSimulator:
    return HadoopSimulator(ClusterSpec())


class TestMapStage:
    def test_map_count_matches_profile(self, sim):
        profile = wordcount_profile(2.0)
        result = sim.run(profile, 10, ExecutionMode.BARRIER)
        assert len(result.map_finish_times) == profile.num_maps
        # One map task span per input chunk, each chunk exactly once.
        maps = stage_spans(result.tracer, "map")
        assert sorted(span.name for span in maps) == sorted(
            f"map-{chunk}" for chunk in range(profile.num_maps)
        )

    def test_map_waves_when_tasks_exceed_slots(self, sim):
        # 16 GB = 256 maps on 60 slots: last map ends well after the first.
        result = sim.run(wordcount_profile(16.0), 10, ExecutionMode.BARRIER)
        st = result.stage_times
        assert st.last_map_done > 2.5 * st.first_map_done

    def test_single_wave_when_tasks_fit(self, sim):
        # 2 GB = 32 maps on 60 slots: finish times spread only by
        # heterogeneity.
        result = sim.run(wordcount_profile(2.0), 10, ExecutionMode.BARRIER)
        st = result.stage_times
        assert st.last_map_done < 1.6 * st.first_map_done

    def test_finish_times_sorted(self, sim):
        result = sim.run(wordcount_profile(4.0), 10, ExecutionMode.BARRIER)
        times = result.map_finish_times
        assert times == sorted(times)


class TestStageOrdering:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_stage_times_monotone(self, sim, mode):
        result = sim.run(wordcount_profile(4.0), 20, mode)
        st = result.stage_times
        assert 0 <= st.first_map_done <= st.last_map_done
        assert st.shuffle_done >= st.first_map_done
        assert st.job_done >= st.shuffle_done
        assert result.completion_time == st.job_done

    def test_barrier_has_sort_stage(self, sim):
        result = sim.run(wordcount_profile(2.0), 10, ExecutionMode.BARRIER)
        assert stage_spans(result.tracer, "sort")
        assert result.stage_times.sort_done > result.stage_times.shuffle_done

    def test_barrierless_has_no_sort_stage(self, sim):
        result = sim.run(wordcount_profile(2.0), 10, ExecutionMode.BARRIERLESS)
        assert not stage_spans(result.tracer, "sort")
        assert stage_spans(result.tracer, "shuffle+reduce")

    def test_reduce_cannot_finish_before_last_map(self, sim):
        for mode in ExecutionMode:
            result = sim.run(wordcount_profile(2.0), 10, mode)
            assert result.completion_time >= result.stage_times.last_map_done


class TestBarrierVsBarrierless:
    def test_pipelining_wins_for_aggregation(self, sim):
        barrier = sim.run(wordcount_profile(8.0), 40, ExecutionMode.BARRIER)
        barrierless = sim.run(wordcount_profile(8.0), 40, ExecutionMode.BARRIERLESS)
        assert barrierless.completion_time < barrier.completion_time

    def test_sort_is_the_degenerate_case(self, sim):
        # §6.1.1: barrier-less sort is slightly SLOWER.
        barrier = sim.run(sort_profile(8.0), 40, ExecutionMode.BARRIER)
        barrierless = sim.run(sort_profile(8.0), 40, ExecutionMode.BARRIERLESS)
        assert barrierless.completion_time > barrier.completion_time
        slowdown = -improvement_percent(
            barrier.completion_time, barrierless.completion_time
        )
        assert 0 < slowdown < 15.0  # paper: up to 9%

    def test_blackscholes_is_best_case(self, sim):
        barrier = sim.run(blackscholes_profile(100), 1, ExecutionMode.BARRIER)
        barrierless = sim.run(blackscholes_profile(100), 1, ExecutionMode.BARRIERLESS)
        assert improvement_percent(
            barrier.completion_time, barrierless.completion_time
        ) > 50.0

    def test_completion_monotone_in_input_size(self, sim):
        times = [
            sim.run(wordcount_profile(gb), 40, ExecutionMode.BARRIERLESS).completion_time
            for gb in (2.0, 4.0, 8.0, 16.0)
        ]
        assert times == sorted(times)

    def test_mapper_slack_positive(self, sim):
        result = sim.run(wordcount_profile(4.0), 40, ExecutionMode.BARRIER)
        assert result.mapper_slack > 0


class TestReducerWaves:
    def test_second_wave_increases_completion(self, sim):
        profile = genetic_profile(150)
        at_capacity = sim.run(profile, 60, ExecutionMode.BARRIER)
        over_capacity = sim.run(profile, 70, ExecutionMode.BARRIER)
        assert over_capacity.completion_time > at_capacity.completion_time

    def test_wave_two_reducers_start_later(self, sim):
        result = sim.run(genetic_profile(150), 70, ExecutionMode.BARRIER)
        starts = {t.reducer_id: t.start for t in result.reducers}
        assert starts[0] == 0.0
        assert starts[65] > 0.0  # second wave


class TestMemoryTechniques:
    def test_inmemory_oom_kills_job(self, sim):
        result = sim.run(
            wordcount_profile(16.0), 10, ExecutionMode.BARRIERLESS,
            MemoryTechnique("inmemory"),
        )
        assert result.failed
        assert result.failure_time is not None
        assert result.failure_time < result.stage_times.last_map_done * 3
        assert "heap" in result.failure_reason

    def test_spillmerge_survives_where_inmemory_dies(self, sim):
        spill = sim.run(
            wordcount_profile(16.0), 10, ExecutionMode.BARRIERLESS,
            MemoryTechnique("spillmerge", spill_threshold_mb=240.0),
        )
        assert not spill.failed
        assert spill.reducers[0].spills > 0

    def test_spill_keeps_heap_under_thresholdish(self, sim):
        result = sim.run(
            wordcount_profile(16.0), 10, ExecutionMode.BARRIERLESS,
            MemoryTechnique("spillmerge", spill_threshold_mb=240.0),
        )
        peak_mb = max(h for _, h in result.reducers[0].heap_samples) / (1 << 20)
        assert peak_mb < 2 * 240.0

    def test_kvstore_slowest(self, sim):
        profile = wordcount_profile(8.0)
        barrier = sim.run(profile, 40, ExecutionMode.BARRIER)
        kv = sim.run(
            profile, 40, ExecutionMode.BARRIERLESS, MemoryTechnique("kvstore")
        )
        assert kv.completion_time > barrier.completion_time

    def test_unbounded_never_fails(self, sim):
        result = sim.run(wordcount_profile(16.0), 5, ExecutionMode.BARRIERLESS)
        assert not result.failed

    def test_heap_samples_recorded(self, sim):
        result = sim.run(
            wordcount_profile(4.0), 20, ExecutionMode.BARRIERLESS,
            MemoryTechnique("inmemory"),
        )
        samples = result.reducers[0].heap_samples
        assert len(samples) == len(result.map_finish_times)
        times = [t for t, _ in samples]
        assert times == sorted(times)

    def test_unknown_technique_rejected(self):
        with pytest.raises(ValueError):
            MemoryTechnique("mongodb")


class TestDeterminism:
    def test_same_spec_same_result(self):
        a = HadoopSimulator(ClusterSpec(seed=9)).run(
            wordcount_profile(4.0), 20, ExecutionMode.BARRIER
        )
        b = HadoopSimulator(ClusterSpec(seed=9)).run(
            wordcount_profile(4.0), 20, ExecutionMode.BARRIER
        )
        assert a.completion_time == b.completion_time
        assert a.map_finish_times == b.map_finish_times

    def test_different_seed_different_heterogeneity(self):
        a = HadoopSimulator(ClusterSpec(seed=1)).run(
            wordcount_profile(4.0), 20, ExecutionMode.BARRIER
        )
        b = HadoopSimulator(ClusterSpec(seed=2)).run(
            wordcount_profile(4.0), 20, ExecutionMode.BARRIER
        )
        assert a.completion_time != b.completion_time


class TestImprovementPercent:
    def test_positive_when_faster(self):
        assert improvement_percent(100.0, 75.0) == pytest.approx(25.0)

    def test_negative_when_slower(self):
        assert improvement_percent(100.0, 109.0) == pytest.approx(-9.0)

    def test_rejects_bad_baseline(self):
        with pytest.raises(ValueError):
            improvement_percent(0.0, 1.0)

    def test_rejects_nonpositive_reducers(self, sim):
        with pytest.raises(ValueError):
            sim.run(wordcount_profile(2.0), 0, ExecutionMode.BARRIER)
