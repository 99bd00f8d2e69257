"""Simulator metrics and span export: schema presence and determinism."""

from __future__ import annotations

from repro.core.types import ExecutionMode
from repro.obs import JobObservability
from repro.sim import HadoopSimulator, paper_testbed, wordcount_profile

#: Every simulated run must export the same tracked series the live
#: engines record, plus the simulator-only utilization series.
REQUIRED_SERIES = (
    "shuffle.buffer.depth",
    "store.bytes",
    "shuffle.fetch.inflight",
    "reduce.records_per_s",
    "sim.network.mb_per_s",
    "sim.disk.spilled_mb",
)


def simulate(mode: ExecutionMode) -> JobObservability:
    obs = JobObservability()
    sim = HadoopSimulator(paper_testbed())
    sim.run(wordcount_profile(2.0), 10, mode, obs=obs)
    return obs


class TestExportedSeries:
    def test_both_modes_export_required_series(self):
        for mode in ExecutionMode:
            obs = simulate(mode)
            names = obs.metrics.names()
            for name in REQUIRED_SERIES:
                assert name in names, f"{mode.value}: missing {name}"
            assert "shuffle.buffer.hwm" in obs.metrics.maxima()

    def test_barrier_buffers_deeper_than_barrierless(self):
        # The paper's core claim, visible in the sampled series: the
        # barrier accumulates shuffle output before reducing while the
        # pipelined mode consumes as it arrives.
        barrier = simulate(ExecutionMode.BARRIER)
        barrierless = simulate(ExecutionMode.BARRIERLESS)
        barrier_hwm = barrier.metrics.maxima()["shuffle.buffer.hwm"]
        barrierless_hwm = barrierless.metrics.maxima()["shuffle.buffer.hwm"]
        assert barrier_hwm > barrierless_hwm

    def test_task_events_exported(self):
        # Every task's start and finish reach the trace as a task span.
        obs = simulate(ExecutionMode.BARRIERLESS)
        tasks = [span for span in obs.tracer.spans() if span.kind == "task"]
        assert any(span.name.startswith("map-") for span in tasks)
        assert any(span.name.startswith("reduce-") for span in tasks)
        assert all(span.start <= span.end for span in tasks)


class TestDeterminism:
    def test_metrics_snapshot_is_bit_identical_across_runs(self):
        for mode in ExecutionMode:
            first = simulate(mode)
            second = simulate(mode)
            assert first.metrics.as_dict() == second.metrics.as_dict()

    def test_span_list_is_identical_across_runs(self):
        first = simulate(ExecutionMode.BARRIERLESS)
        second = simulate(ExecutionMode.BARRIERLESS)
        assert first.tracer.spans() == second.tracer.spans()
