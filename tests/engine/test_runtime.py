"""The batch-native pipelined reduce attempt, driven directly.

``run_pipelined_reduce_attempt`` hands its reducer whole wire batches and
pays counters, flow control, the store write-back and checkpoint cuts
once per batch.  Two contracts survive that and are pinned here against
an in-memory :class:`MapOutputService`, with no engine around them:

- fault injectors are still consulted for *every record* (crash, SIGKILL
  and throttle injectors key on the consumed-record index);
- ``restored + replayed + refolded + live`` still adds up to the
  partition's records when periodic snapshots, a preempt cut and a
  resume are all in play, and the resumed output is the oracle's.
"""

from __future__ import annotations

import threading

import pytest

from repro.apps.demo import demo_job_and_input, normalized_output
from repro.core.job import split_input
from repro.core.types import Counters, ExecutionMode, StageTimes
from repro.dfs.wire import WireConfig
from repro.engine.base import finish_result, run_map_task_encoded
from repro.engine.fold import ReducePreemptedError, ReduceTaskRecovery
from repro.engine.local import LocalEngine
from repro.engine.recovery import (
    BackoffPolicy,
    FetchFaultInjector,
    MapOutputService,
    RecoveryConfig,
    ReducerCrashError,
    reduce_record_hook,
)
from repro.engine.runtime import run_pipelined_reduce_attempt
from repro.memory.checkpoint import CheckpointPolicy
from repro.obs import JobObservability

NUM_MAPS = 3
BATCH = 16
WIRE = WireConfig(max_batch_records=BATCH)
CONFIG = RecoveryConfig(
    fetch_timeout_s=0.5, backoff=BackoffPolicy(base_s=0.0005, cap_s=0.005)
)


class _Recording(FetchFaultInjector):
    """Logs every ``check_reduce`` index; optionally trips an event at one."""

    def __init__(self, trip_at=None, event=None, **knobs):
        super().__init__(**knobs)
        self.seen: list[int] = []
        self._trip_at = trip_at
        self._event = event

    def check_reduce(self, reducer, consumed):
        self.seen.append(consumed)
        if consumed == self._trip_at:
            self._event.set()
        super().check_reduce(reducer, consumed)


@pytest.fixture(scope="module")
def published():
    """One-reducer ``wc``: job, oracle output, a loaded service, its size."""
    job, pairs = demo_job_and_input(
        "wc", ExecutionMode.BARRIERLESS, records=300,
        num_reducers=1, num_maps=NUM_MAPS,
    )
    oracle = normalized_output("wc", LocalEngine().run(job, pairs, NUM_MAPS))
    service = MapOutputService(NUM_MAPS, 1)
    total = 0
    for mapper, split in enumerate(split_input(pairs, NUM_MAPS)):
        batches = run_map_task_encoded(job, split, Counters(), WIRE)
        total += sum(len(batch) for batch in batches[0])
        service.publish(mapper, batches)
    return job, oracle, service, total


def _attempt(job, service, *, injector=None, recovery=None, stop=None, obs=None):
    return run_pipelined_reduce_attempt(
        job, service, 0, NUM_MAPS, None, 0,
        obs=obs or JobObservability(), config=CONFIG, injector=injector,
        wire=WIRE, recovery=recovery, stop=stop,
    )


def _normalized(job, produced):
    result = finish_result(job, {0: produced}, Counters(), StageTimes())
    return normalized_output("wc", result)


def test_crash_threshold_inside_a_batch_fires_at_that_record(published):
    job, oracle, service, total = published
    crash_at = 2 * BATCH + 5  # strictly inside the third batch
    injector = _Recording(crash_reducer_after={0: crash_at})
    recovery = ReduceTaskRecovery()
    with pytest.raises(ReducerCrashError, match=f"after {crash_at} records"):
        _attempt(job, service, injector=injector, recovery=recovery)
    # Consulted once per record, in order, and never past the crash.
    assert injector.seen == list(range(crash_at + 1))
    # Fold progress is batch-granular: only whole batches count as done.
    assert sum(recovery.prior_records.values()) == 2 * BATCH

    injector.seen.clear()
    produced, counters = _attempt(
        job, service, injector=injector, recovery=recovery
    )
    assert injector.seen == list(range(total))
    assert _normalized(job, produced) == oracle
    assert counters.get("shuffle.records") == total
    assert counters.get("reduce.refolded_records") == 2 * BATCH
    assert counters.get("reduce.live_records") == total - 2 * BATCH


def test_no_injector_means_no_per_record_hook(published):
    job, oracle, service, total = published
    assert reduce_record_hook(None, 0) is None
    produced, counters = _attempt(job, service)
    assert _normalized(job, produced) == oracle
    assert counters.get("shuffle.records") == total  # paid per batch


def test_buckets_add_up_under_periodic_checkpoints_and_a_preempt(
    published, tmp_path
):
    job, oracle, service, total = published
    stop = threading.Event()
    # The preempt directive lands mid-batch; the cut is the next boundary.
    injector = _Recording(trip_at=5 * BATCH + 3, event=stop)
    recovery = ReduceTaskRecovery(
        CheckpointPolicy(every_records=2 * BATCH), str(tmp_path)
    )
    obs = JobObservability()
    with pytest.raises(ReducePreemptedError) as preempted:
        _attempt(
            job, service, injector=injector, recovery=recovery, stop=stop,
            obs=obs,
        )
    cut = preempted.value.records
    assert 5 * BATCH + 3 < cut < total
    assert cut == sum(recovery.prior_records.values())  # whole batches only
    assert injector.seen == list(range(cut))  # stopped at the boundary
    # Periodic snapshots before the cut, plus the preempt's own.
    assert obs.counters.get("reduce.checkpoint.writes") >= 3

    stop.clear()
    produced, counters = _attempt(
        job, service, recovery=recovery, stop=stop, obs=obs
    )
    assert _normalized(job, produced) == oracle
    buckets = {
        name: counters.get(f"reduce.{name}_records")
        for name in ("restored", "replayed", "refolded", "live")
    }
    assert buckets["restored"] == cut
    assert buckets["refolded"] == 0
    assert sum(buckets.values()) == total, buckets
