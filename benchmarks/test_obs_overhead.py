"""Observability overhead: counters enabled vs disabled on real work.

The acceptance bar for the instrumentation layer is that enabling the
full bundle (counters + spans) costs at most 5% wall time on a threaded
WordCount.  The design that makes this hold: per-record counting stays
on the engines' existing task-local ``Counters`` and is folded into the
shared registry once per task, so the registry lock is taken O(tasks)
times regardless of record volume.

The same bar applies to the cluster telemetry plane (PR 8): shipping
spans/counters/series deltas on every worker heartbeat must cost
at most 5% wall time on a cluster WordCount versus workers forked with
``ship_telemetry=False``.  Delta encoding happens at heartbeat cadence
(20–50 ms), never per record, so the cost is O(heartbeats).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import emit
from repro.apps.demo import demo_job_and_input
from repro.core.types import ExecutionMode
from repro.engine.threaded import ThreadedEngine
from repro.obs import JobObservability

RECORDS = 20_000
REPEATS = 7
MAX_OVERHEAD = 0.05
#: Wall-clock noise floor: differences below this are scheduling jitter,
#: not instrumentation cost (the job itself runs for hundreds of ms).
ABS_SLACK_S = 0.015


def run_wordcount(obs: JobObservability) -> float:
    job, pairs = demo_job_and_input(
        "wc", ExecutionMode.BARRIERLESS, records=RECORDS, seed=3
    )
    engine = ThreadedEngine(map_slots=4, obs=obs)
    start = time.perf_counter()
    engine.run(job, pairs, num_maps=8)
    return time.perf_counter() - start


def best_of(factory) -> float:
    # Minimum over repeats is the standard low-noise wall-time estimator.
    return min(run_wordcount(factory()) for _ in range(REPEATS))


@pytest.mark.benchmark
def test_counter_overhead_within_five_percent():
    best_of(JobObservability.disabled)  # warm caches for both arms
    disabled = best_of(JobObservability.disabled)
    enabled = best_of(JobObservability)
    overhead = enabled - disabled
    ratio = enabled / disabled if disabled > 0 else 1.0
    emit(
        "Observability overhead (threaded WordCount, "
        f"{RECORDS} records, best of {REPEATS})\n"
        f"  disabled: {disabled * 1e3:8.1f} ms\n"
        f"  enabled:  {enabled * 1e3:8.1f} ms\n"
        f"  overhead: {overhead * 1e3:+8.1f} ms ({(ratio - 1) * 100:+.1f}%)"
    )
    assert overhead <= max(MAX_OVERHEAD * disabled, ABS_SLACK_S), (
        f"observability overhead {(ratio - 1) * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% budget"
    )


# ---------------------------------------------------------------------------
# Cluster telemetry shipping
# ---------------------------------------------------------------------------

CLUSTER_RECORDS = 5_000
CLUSTER_REPEATS = 5
#: Forked processes + socket scheduling are far noisier than a threaded
#: run; absolute slack covers heartbeat-interval quantisation.
CLUSTER_ABS_SLACK_S = 0.2


def _cluster_best_of(ship_telemetry: bool) -> float:
    from repro.cluster import ClusterRuntime

    job, pairs = demo_job_and_input(
        "wc", ExecutionMode.BARRIERLESS, records=CLUSTER_RECORDS, seed=3
    )
    # One runtime per arm: fork + registration cost is paid once and
    # only job wall time is measured.
    with ClusterRuntime(2, ship_telemetry=ship_telemetry) as runtime:
        times = []
        for _ in range(CLUSTER_REPEATS):
            start = time.perf_counter()
            runtime.run_job(job, pairs, num_maps=4)
            times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.benchmark
def test_telemetry_shipping_overhead_within_five_percent():
    off = _cluster_best_of(ship_telemetry=False)
    on = _cluster_best_of(ship_telemetry=True)
    overhead = on - off
    ratio = on / off if off > 0 else 1.0
    emit(
        "Cluster telemetry shipping overhead (2-worker WordCount, "
        f"{CLUSTER_RECORDS} records, best of {CLUSTER_REPEATS})\n"
        f"  shipping off: {off * 1e3:8.1f} ms\n"
        f"  shipping on:  {on * 1e3:8.1f} ms\n"
        f"  overhead:     {overhead * 1e3:+8.1f} ms "
        f"({(ratio - 1) * 100:+.1f}%)"
    )
    assert overhead <= max(MAX_OVERHEAD * off, CLUSTER_ABS_SLACK_S), (
        f"telemetry shipping overhead {(ratio - 1) * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% budget"
    )
