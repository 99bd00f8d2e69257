"""Stage times are read off the span tree, by one rule for every engine.

``repro.obs.stage_times`` is unit-tested on hand-recorded spans; the
threaded engine and a two-worker cluster must report boundaries that
are exactly their op spans' ends, relative to the job span.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.apps.demo import demo_job_and_input
from repro.cluster.engine import ClusterRuntime
from repro.core.types import ExecutionMode, StageTimes
from repro.engine.local import LocalEngine
from repro.engine.threaded import ThreadedEngine
from repro.obs import JobObservability, Span, Tracer, stage_times


def _job_tree(tracer: Tracer, start: float = 10.0) -> Span:
    """One job at ``start``: three maps (map-1 re-executed), two
    reducers, one barrier attempt each."""
    job = tracer.record("wc", "job", start, start + 9.0)
    maps = tracer.record("map", "stage", start, start + 6.0, parent=job)
    tracer.record("map-0", "task", start + 0.5, start + 2.0, parent=maps)
    tracer.record("map-1", "task", start + 1.0, start + 1.5, parent=maps)
    tracer.record("map-2", "task", start + 0.5, start + 3.0, parent=maps)
    tracer.record("map-1", "task", start + 4.0, start + 6.0, parent=maps)
    tracer.record("map-2-reexec", "task", start + 4.0, start + 8.5, parent=job)
    reduces = tracer.record("reduce", "stage", start, start + 9.0, parent=job)
    for index, (shuffled, sorted_, done) in enumerate(
        [(6.5, 7.0, 8.0), (7.5, 7.75, 8.75)]
    ):
        task = tracer.record(
            f"reduce-{index}", "task", start, start + done, parent=reduces
        )
        tracer.record("fetch-0", "op", start, start + 8.875, parent=task)
        tracer.record("shuffle", "op", start, start + shuffled, parent=task)
        tracer.record(
            "sort", "op", start + shuffled, start + sorted_, parent=task
        )
        tracer.record(
            "reduce", "op", start + sorted_, start + done, parent=task
        )
    # An op that is not a reduce task's own phase does not count.
    tracer.record("shuffle", "op", start, start + 8.875, parent=reduces)
    return job


class TestStageTimesRule:
    def test_boundaries_come_from_named_spans(self):
        tracer = Tracer()
        job = _job_tree(tracer)
        assert stage_times(tracer.job_spans(job)) == StageTimes(
            map_start=0.5,
            # map-1's output is its second run's: maps end at 2, 6, 3.
            first_map_done=2.0,
            last_map_done=6.0,
            shuffle_done=7.5,
            sort_done=7.75,
            reduce_done=8.75,
            job_done=9.0,
        )

    def test_no_sort_falls_back_to_shuffle_done(self):
        tracer = Tracer()
        job = tracer.record("wc", "job", 0.0, 5.0)
        task = tracer.record("reduce-0", "task", 1.0, 4.0, parent=job)
        tracer.record("shuffle+reduce", "op", 1.0, 3.0, parent=task)
        tracer.record("output", "op", 3.0, 4.0, parent=task)
        times = stage_times(tracer.spans())
        assert times.shuffle_done == times.sort_done == 3.0
        assert times.reduce_done == 4.0 and times.job_done == 5.0

    def test_unrecorded_boundaries_are_zero(self):
        assert stage_times([]) == StageTimes()
        tracer = Tracer()
        tracer.record("map-0", "task", 1.0, 2.0)
        assert stage_times(tracer.spans()) == StageTimes()
        tracer.record("wc", "job", 0.5, 4.0)
        assert stage_times(tracer.spans()) == StageTimes(
            map_start=0.5, first_map_done=1.5, last_map_done=1.5,
            job_done=3.5,
        )

    def test_observability_off_gives_zeros(self):
        obs = JobObservability.disabled()
        job, pairs = demo_job_and_input("wc", ExecutionMode.BARRIER, 200)
        for engine in (LocalEngine(obs=obs), ThreadedEngine(obs=obs)):
            assert engine.run(job, pairs).stage_times == StageTimes()


class TestJobSpans:
    def test_jobs_sharing_a_tracer_are_apart(self):
        tracer = Tracer()
        first = _job_tree(tracer, start=0.0)
        second = _job_tree(tracer, start=20.0)
        assert len(tracer.job_spans(first)) == len(tracer.job_spans(second))
        assert stage_times(tracer.job_spans(second)) == stage_times(
            tracer.job_spans(first)
        )
        assert tracer.job_spans(None) == []

    def test_a_job_nested_in_another_keeps_its_own_spans(self):
        tracer = Tracer()
        with tracer.span("outer", "job") as outer:
            with tracer.span("inner", "job") as inner:
                with tracer.span("map-0", "task"):
                    pass
            with tracer.span("map-0", "task"):
                pass
        assert [s.name for s in tracer.job_spans(inner)] == ["map-0", "inner"]
        assert [s.name for s in tracer.job_spans(outer)] == ["map-0", "outer"]

    def test_open_spans_are_not_read(self):
        tracer = Tracer()
        job = tracer.open("wc", "job")
        tracer.close(tracer.open("map-0", "task", parent=job))
        assert [s.name for s in tracer.job_spans(job)] == ["map-0"]
        tracer.close(job)
        assert len(tracer.job_spans(job)) == 2


def _op_end(spans: list[Span], job: Span, *names: str) -> float:
    """Latest end of a reduce task's own ``names`` op, job-relative."""
    reduce_tasks = {
        span.span_id for span in spans
        if span.kind == "task" and span.name.startswith("reduce-")
    }
    return max(
        span.end for span in spans
        if span.kind == "op" and span.parent_id in reduce_tasks
        and span.name in names
    ) - job.start


def _check_order(times: StageTimes, mode) -> None:
    if mode is ExecutionMode.BARRIER:
        assert (
            times.shuffle_done < times.sort_done
            < times.reduce_done <= times.job_done
        )
    else:
        assert times.sort_done == times.shuffle_done < times.job_done
    assert 0.0 <= times.map_start <= times.first_map_done
    assert times.first_map_done <= times.last_map_done <= times.job_done


def _check_against_spans(times: StageTimes, spans: list[Span], mode) -> None:
    (job,) = [span for span in spans if span.kind == "job"]
    assert times.job_done == job.end - job.start
    assert times.reduce_done == max(
        span.end for span in spans
        if span.kind == "task" and span.name.startswith("reduce-")
    ) - job.start
    if mode is ExecutionMode.BARRIER:
        assert times.shuffle_done == _op_end(spans, job, "shuffle")
        assert times.sort_done == _op_end(spans, job, "sort")
    else:
        assert times.shuffle_done == _op_end(spans, job, "shuffle+reduce")
        # The final sweep and the drain are their own phase.
        assert _op_end(spans, job, "output") > times.shuffle_done
    _check_order(times, mode)


MODES = [ExecutionMode.BARRIER, ExecutionMode.BARRIERLESS]


@pytest.mark.parametrize("mode", MODES, ids=[mode.value for mode in MODES])
def test_threaded_stage_times_are_its_op_span_boundaries(mode):
    engine = ThreadedEngine(map_slots=2)
    job, pairs = demo_job_and_input("wc", mode, records=1500)
    result = engine.run(job, pairs, num_maps=4)
    _check_against_spans(result.stage_times, engine.obs.tracer.spans(), mode)


def test_one_tracer_serves_two_jobs():
    engine = ThreadedEngine(map_slots=2)
    job, pairs = demo_job_and_input("wc", ExecutionMode.BARRIER, 1500)
    engine.run(job, pairs, num_maps=4)
    second = engine.run(job, pairs, num_maps=4)
    spans = engine.obs.tracer.spans()
    first_job, second_job = [span for span in spans if span.kind == "job"]
    by_id = {span.span_id: span for span in spans}

    def root(span: Span) -> Span:
        while span.parent_id is not None:
            span = by_id[span.parent_id]
        return span

    own = [span for span in spans if root(span) is second_job]
    times = second.stage_times
    assert times == stage_times(own)
    assert 0.0 < times.first_map_done < times.job_done
    assert times.job_done == second_job.end - second_job.start
    assert second_job.start >= first_job.end


@pytest.fixture(scope="module")
def cluster():
    with ClusterRuntime(2) as runtime:
        yield runtime


@pytest.mark.parametrize("mode", MODES, ids=[mode.value for mode in MODES])
def test_cluster_stage_times_are_its_op_span_boundaries(cluster, mode):
    job, pairs = demo_job_and_input("wc", mode, records=1500)
    job_id = f"stage-times-{mode.value}"
    result = cluster.run_job(job, pairs, num_maps=4, job_id=job_id)
    job_span = cluster.obs.tracer.spans("job")[-1]
    spans = [job_span, *cluster.telemetry.job_spans(job_id)]
    _check_against_spans(stage_times(spans), spans, mode)
    # The coordinator read these spans as the job ended; since then only
    # its estimate of each worker's clock offset can have been refined.
    assert astuple(result.stage_times) == pytest.approx(
        astuple(stage_times(spans)), abs=0.01
    )
    _check_order(result.stage_times, mode)


def test_cluster_without_telemetry_records_only_the_job_span():
    with ClusterRuntime(2, ship_telemetry=False) as runtime:
        job, pairs = demo_job_and_input("wc", ExecutionMode.BARRIER, 500)
        times = runtime.run_job(job, pairs, num_maps=2).stage_times
    (job_span,) = runtime.obs.tracer.spans("job")
    assert times == StageTimes(job_done=job_span.end - job_span.start)
