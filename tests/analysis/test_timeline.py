"""Tests for Figure 4 timeline extraction and rendering."""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.export import write_timeline_csv
from repro.analysis.timeline import (
    BARRIER_STAGES,
    BARRIERLESS_STAGES,
    ascii_timeline,
    concurrency_series,
    stage_spans,
    stage_summary,
    timeline,
)
from repro.core.types import ExecutionMode
from repro.obs import JobObservability, Tracer
from repro.sim.hadoop import HadoopSimulator, ReducerFailure
from repro.sim.workload import wordcount_profile

#: sha256 of ``write_timeline_csv`` for ``wordcount_profile(3.0)`` at 40
#: reducers on the default cluster, computed while the simulator still
#: kept a separate task log for Figure 4.  A mismatch means a panel
#: moved: fix the code, never the constant.
FIG4_CSV_SHA256 = {
    ExecutionMode.BARRIER:
        "d85f351bf723d460fe740842c6f0b8a90d63b2b381b51ef9eb92289e68ff2e5e",
    ExecutionMode.BARRIERLESS:
        "0c50641ca41855968d099c5ce7263421a86ce7ac70a9d2c9589373f51afc0c6f",
}


def _spans(*intervals: tuple[float, float]):
    """One ``map`` task span per ``(start, end)``, via ``Tracer.record``."""
    tracer = Tracer()
    for index, (start, end) in enumerate(intervals):
        tracer.record(f"map-{index}", "task", start, end)
    return tracer.spans()


@pytest.fixture(scope="module")
def results():
    sim = HadoopSimulator()
    profile = wordcount_profile(3.0)
    return {
        mode: sim.run(profile, 40, mode) for mode in ExecutionMode
    }


class TestTimeline:
    def test_barrier_panel_stages(self, results):
        series = timeline(results[ExecutionMode.BARRIER])
        assert [s.stage for s in series] == list(BARRIER_STAGES)

    def test_barrierless_panel_stages(self, results):
        series = timeline(results[ExecutionMode.BARRIERLESS])
        assert [s.stage for s in series] == list(BARRIERLESS_STAGES)

    def test_map_concurrency_bounded_by_slots(self, results):
        series = timeline(results[ExecutionMode.BARRIER])
        map_series = next(s for s in series if s.stage == "map")
        assert 0 < map_series.peak() <= 60  # 60 map slots in the testbed

    def test_reduce_follows_sort_in_barrier_mode(self, results):
        series = {s.stage: s for s in timeline(results[ExecutionMode.BARRIER])}
        # First time reduce becomes active must not precede first sort
        # activity (the barrier's ordering).
        def first_active(s):
            for t, c in zip(s.times, s.counts):
                if c > 0:
                    return t
            return float("inf")

        assert first_active(series["reduce"]) >= first_active(series["sort"])

    def test_series_lengths_consistent(self, results):
        for s in timeline(results[ExecutionMode.BARRIER]):
            assert len(s.times) == len(s.counts)


    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_csv_matches_the_golden_digest(self, results, mode, tmp_path):
        path = write_timeline_csv(str(tmp_path / "fig4.csv"), results[mode])
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == FIG4_CSV_SHA256[mode]


class TestStageSpans:
    def test_map_stage_is_the_map_tasks(self, results):
        result = results[ExecutionMode.BARRIER]
        maps = stage_spans(result.tracer, "map")
        assert len(maps) == wordcount_profile(3.0).num_maps
        assert all(span.name.startswith("map-") for span in maps)
        # Reduce task spans live under the reduce stage, not here.
        assert len(result.tracer.spans("task")) == len(maps) + 40

    def test_other_stages_are_op_spans(self, results):
        barrier = results[ExecutionMode.BARRIER].tracer
        barrierless = results[ExecutionMode.BARRIERLESS].tracer
        for stage in ("shuffle", "sort", "reduce"):
            assert len(stage_spans(barrier, stage)) == 40
        assert not stage_spans(barrier, "shuffle+reduce")
        for stage in ("shuffle+reduce", "output"):
            assert len(stage_spans(barrierless, stage)) == 40
        assert not stage_spans(barrierless, "sort")

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_obs_receives_the_same_tree(self, mode):
        # One recording path: the exported trace is the result's own.
        obs = JobObservability()
        result = HadoopSimulator().run(
            wordcount_profile(3.0), 40, mode, obs=obs,
            reducer_failure=ReducerFailure(reducer_id=3, at_time=40.0),
        )

        def tree(tracer):
            names = {span.span_id: span.name for span in tracer.spans()}
            return [
                (s.name, s.kind, s.start, s.end, names.get(s.parent_id), s.attrs)
                for s in tracer.spans()
            ]

        assert tree(obs.tracer) == tree(result.tracer)
        assert len(stage_spans(obs.tracer, "map")) == len(
            stage_spans(result.tracer, "map")
        )
        assert [s.name for s in result.tracer.spans("attempt")] == [
            "reduce-3/attempt-0", "reduce-3/attempt-1",
        ]


class TestConcurrencySeries:
    def test_counts_active_tasks(self):
        times, counts = concurrency_series(_spans((0.0, 4.0), (2.0, 6.0)), step=1.0)
        assert times[:7] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert counts[:7] == [1, 1, 2, 2, 1, 1, 0]

    def test_empty_events_yield_empty_series(self):
        times, counts = concurrency_series([], step=1.0)
        assert times == []
        assert counts == []

    def test_empty_events_with_until_still_sample(self):
        times, counts = concurrency_series([], step=1.0, until=2.0)
        assert times == [0.0, 1.0, 2.0]
        assert counts == [0, 0, 0]

    def test_zero_duration_event_counts_at_its_instant(self):
        # ``Tracer.record`` accepts start == end; it rejects end < start.
        times, counts = concurrency_series(_spans((2.0, 2.0), (0.0, 4.0)), step=1.0)
        assert counts[times.index(2.0)] == 2
        assert counts[times.index(1.0)] == 1
        assert counts[times.index(3.0)] == 1

    def test_all_zero_duration_events(self):
        times, counts = concurrency_series(_spans((0.0, 0.0)), step=1.0)
        assert times == [0.0]
        assert counts == [1]

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            concurrency_series([], step=0.0)

    def test_until_extends_horizon(self):
        times, counts = concurrency_series(_spans((0.0, 1.0)), step=1.0, until=3.0)
        assert times[-1] == 3.0
        assert counts[-1] == 0

    def test_peak_never_exceeds_event_count(self):
        spans = _spans(*[(float(i % 3), float(i % 3) + 2.0) for i in range(30)])
        _, counts = concurrency_series(spans, step=0.5)
        assert max(counts) <= 30

    def test_identical_timestamps_all_counted(self):
        # Simulator output routinely has many tasks with bit-identical
        # start/end (virtual-time ties); every one must count.
        times, counts = concurrency_series(_spans(*[(1.0, 3.0)] * 5), step=1.0)
        assert counts[times.index(1.0)] == 5
        assert counts[times.index(2.0)] == 5
        assert counts[times.index(3.0)] == 0

    def test_identical_zero_duration_timestamps(self):
        times, counts = concurrency_series(_spans(*[(2.0, 2.0)] * 4), step=1.0)
        assert counts[times.index(2.0)] == 4

    def test_until_shorter_than_last_event_truncates(self):
        # A horizon before the last span's end clips sampling at the
        # horizon; the span still counts while it overlaps the window.
        spans = _spans((0.0, 10.0), (4.0, 10.0))
        times, counts = concurrency_series(spans, step=1.0, until=5.0)
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert counts == [1, 1, 1, 1, 2, 2]

    def test_until_shorter_than_event_start_samples_zeros(self):
        times, counts = concurrency_series(_spans((8.0, 9.0)), step=1.0, until=3.0)
        assert times[-1] == 3.0
        assert counts == [0, 0, 0, 0]


class TestAsciiTimeline:
    def test_render_contains_legend(self, results):
        rendered = ascii_timeline(timeline(results[ExecutionMode.BARRIER]))
        assert "map" in rendered
        assert "+" in rendered  # axis

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_timeline([])


class TestStageSummary:
    def test_barrierless_finishes_soon_after_last_map(self, results):
        # §3.2: "the job finishes ... only 10 seconds after the final Map
        # task completes" — the pipelined job's tail is short relative to
        # the barrier version's shuffle+sort+reduce tail.
        bl = stage_summary(results[ExecutionMode.BARRIERLESS])
        barrier = stage_summary(results[ExecutionMode.BARRIER])
        bl_tail = bl["job_done"] - bl["last_map_done"]
        barrier_tail = barrier["job_done"] - barrier["last_map_done"]
        assert bl_tail < barrier_tail

    def test_summary_keys(self, results):
        summary = stage_summary(results[ExecutionMode.BARRIER])
        assert set(summary) == {
            "first_map_done",
            "last_map_done",
            "shuffle_done",
            "sort_done",
            "job_done",
            "mapper_slack",
        }

    def test_mapper_slack_nonnegative(self, results):
        for result in results.values():
            assert stage_summary(result)["mapper_slack"] >= 0.0
