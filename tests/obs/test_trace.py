"""Unit tests for the span tracer."""

from __future__ import annotations

import threading

import pytest

from repro.obs import KIND_DEPTH, Tracer


class FakeClock:
    """A manually-advanced clock for deterministic span times."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float = 1.0) -> None:
        self.t += dt


def test_span_context_manager_records_interval():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("job", "job"):
        clock.tick(5.0)
    (span,) = tracer.spans()
    assert (span.name, span.kind, span.start, span.end) == ("job", "job", 0.0, 5.0)
    assert span.duration == 5.0


def test_nested_spans_get_implicit_parents():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("job", "job") as job:
        with tracer.span("map", "stage") as stage:
            with tracer.span("map-0", "task") as task:
                pass
    assert job.parent_id is None
    assert stage.parent_id == job.span_id
    assert task.parent_id == stage.span_id


def test_explicit_parent_beats_implicit():
    tracer = Tracer(clock=FakeClock())
    outer = tracer.open("job", "job")
    with tracer.span("other", "job"):
        child = tracer.open("map", "stage", parent=outer)
    assert child.parent_id == outer.span_id
    tracer.close(child)
    tracer.close(outer)


def test_open_close_supports_overlapping_intervals():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    a = tracer.open("map", "stage")
    clock.tick()
    b = tracer.open("reduce", "stage")
    clock.tick()
    tracer.close(a)
    clock.tick()
    tracer.close(b)
    spans = {span.name: span for span in tracer.spans()}
    assert spans["map"].start < spans["reduce"].start < spans["map"].end
    assert spans["reduce"].end > spans["map"].end


def test_record_with_explicit_times():
    tracer = Tracer()
    parent = tracer.record("job", "job", 0.0, 10.0)
    child = tracer.record("map", "stage", 1.0, 4.0, parent=parent)
    assert child.parent_id == parent.span_id
    assert [span.name for span in tracer.spans()] == ["job", "map"]


def test_record_rejects_negative_duration_and_bad_kind():
    tracer = Tracer()
    with pytest.raises(ValueError):
        tracer.record("x", "job", 5.0, 1.0)
    with pytest.raises(ValueError):
        tracer.record("x", "banana", 0.0, 1.0)
    with pytest.raises(ValueError):
        tracer.open("x", "banana")


def test_record_rejects_negative_duration():
    tracer = Tracer()
    with pytest.raises(ValueError):
        tracer.record("m1", "task", 10.0, 5.0)
    assert len(tracer) == 0


def test_record_allows_zero_duration():
    tracer = Tracer()
    span = tracer.record("m1", "task", 5.0, 5.0)
    assert (span.start, span.end, span.duration) == (5.0, 5.0, 0.0)


def test_disabled_tracer_yields_none_and_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("job", "job") as span:
        assert span is None
    assert tracer.open("x", "task") is None
    tracer.close(None)  # no-op by contract
    assert tracer.record("x", "task", 0.0, 1.0) is None
    assert len(tracer) == 0
    assert tracer.makespan() == 0.0


def test_thread_local_stacks_do_not_cross_threads():
    tracer = Tracer(clock=FakeClock())
    captured = {}

    def worker():
        # No span is open in *this* thread, so no implicit parent exists.
        span = tracer.open("task", "task")
        captured["parent"] = span.parent_id
        tracer.close(span)

    with tracer.span("job", "job"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert captured["parent"] is None


def test_spans_sorted_and_queryable():
    tracer = Tracer()
    job = tracer.record("job", "job", 0.0, 9.0)
    tracer.record("b", "task", 5.0, 6.0, parent=job)
    tracer.record("a", "task", 1.0, 2.0, parent=job)
    assert [span.name for span in tracer.spans()] == ["job", "a", "b"]
    assert [span.name for span in tracer.spans(kind="task")] == ["a", "b"]
    assert [span.name for span in tracer.job_spans(job)] == ["job", "b", "a"]
    assert tracer.makespan() == 9.0


def test_spans_filter_by_kind():
    tracer = Tracer()
    tracer.record("m1", "task", 0.0, 2.0)
    tracer.record("reduce", "stage", 2.0, 5.0)
    assert len(tracer.spans()) == 2
    assert [span.name for span in tracer.spans(kind="task")] == ["m1"]


def test_spans_sorted_by_start():
    tracer = Tracer()
    tracer.record("late", "task", 5.0, 6.0)
    tracer.record("early", "task", 1.0, 2.0)
    assert [span.name for span in tracer.spans()] == ["early", "late"]


def test_makespan_is_latest_end():
    tracer = Tracer()
    assert tracer.makespan() == 0.0
    tracer.record("m1", "task", 0.0, 7.5)
    tracer.record("m2", "task", 1.0, 3.0)
    assert tracer.makespan() == 7.5


def test_kind_depth_covers_full_hierarchy():
    assert (
        KIND_DEPTH["job"]
        < KIND_DEPTH["stage"]
        < KIND_DEPTH["task"]
        < KIND_DEPTH["attempt"]
        <= KIND_DEPTH["op"]
    )
