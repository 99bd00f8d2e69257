"""Figure 4 — progress of WordCount on 3 GB with and without the barrier.

Regenerates both panels as stage-concurrency timelines on the simulated
testbed and checks the §3.2 claims: a visible barrier gap in panel (a), a
combined shuffle+reduce stage in panel (b), a short post-map tail in the
barrier-less run, and a ~30% completion-time improvement.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.analysis import ascii_timeline, stage_summary, timeline
from repro.analysis.timeline import stage_spans
from repro.core.types import ExecutionMode
from repro.sim import HadoopSimulator, improvement_percent, wordcount_profile


@pytest.fixture(scope="module")
def runs(testbed):
    sim = HadoopSimulator(testbed)
    profile = wordcount_profile(3.0)
    return {mode: sim.run(profile, 40, mode) for mode in ExecutionMode}


def test_fig4_timelines(benchmark, testbed):
    sim = HadoopSimulator(testbed)
    profile = wordcount_profile(3.0)

    def run_both():
        return {mode: sim.run(profile, 40, mode) for mode in ExecutionMode}

    results = benchmark(run_both)
    barrier = results[ExecutionMode.BARRIER]
    barrierless = results[ExecutionMode.BARRIERLESS]

    emit(
        "FIGURE 4(a) — WordCount 3 GB, with barrier\n"
        + ascii_timeline(timeline(barrier))
    )
    emit(
        "FIGURE 4(b) — WordCount 3 GB, without barrier\n"
        + ascii_timeline(timeline(barrierless))
    )

    b = stage_summary(barrier)
    bl = stage_summary(barrierless)
    improvement = improvement_percent(
        barrier.completion_time, barrierless.completion_time
    )
    emit(
        f"barrier:      maps {b['first_map_done']:5.1f}..{b['last_map_done']:5.1f}s, "
        f"sort done {b['sort_done']:5.1f}s, job {b['job_done']:5.1f}s\n"
        f"barrier-less: job {bl['job_done']:5.1f}s "
        f"({bl['job_done'] - bl['last_map_done']:.1f}s after last map)\n"
        f"improvement:  {improvement:.1f}%   (paper: 30% for this scenario)"
    )

    # Panel (a): reduce starts only after the last map (the barrier gap).
    assert b["sort_done"] > b["last_map_done"]
    # Panel (b): the job ends within a short tail of the final map task
    # ("within ... only 10 seconds after the final Map task completes").
    barrier_tail = b["job_done"] - b["last_map_done"]
    barrierless_tail = bl["job_done"] - bl["last_map_done"]
    assert barrierless_tail < 0.5 * barrier_tail
    # Completion-time improvement in the paper's ballpark.
    assert 15.0 < improvement < 45.0


def test_fig4_stage_composition(runs):
    barrier = runs[ExecutionMode.BARRIER]
    barrierless = runs[ExecutionMode.BARRIERLESS]
    stages = ("map", "shuffle", "sort", "reduce", "shuffle+reduce", "output")

    def present(result):
        return {stage for stage in stages if stage_spans(result.tracer, stage)}

    barrier_kinds = present(barrier)
    barrierless_kinds = present(barrierless)
    assert {"map", "shuffle", "sort", "reduce"} <= barrier_kinds
    assert "shuffle+reduce" in barrierless_kinds
    assert "sort" not in barrierless_kinds
