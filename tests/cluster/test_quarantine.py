"""Failure-aware worker quarantine and per-job retry budgets.

The acceptance row: a worker whose ``fail-tasks`` chaos makes every
task raise must be quarantined (``cluster.quarantine.workers >= 1``),
receive no further grants, and the jobs must still complete
byte-identical on the healthy workers.  The tracker itself is pure and
clock-free, so its unit + hypothesis suites run on a virtual clock.
"""

from __future__ import annotations

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.demo import demo_job_and_input, normalized_output
from repro.cluster import (
    ClusterJobError,
    ClusterRuntime,
    ClusterTaskError,
    QuarantineConfig,
    QuarantineTracker,
)
from repro.cluster.journal import replay_journal
from repro.core.types import ExecutionMode
from repro.dfs.wire import WireConfig
from repro.engine.recovery import RecoveryConfig
from repro.engine.threaded import ThreadedEngine
from repro.memory.checkpoint import CheckpointPolicy

RECORDS = 300
#: Enough maps that the sick worker receives at least two grants
#: (spread placement), so it can actually cross max_failures=2.
NUM_MAPS = 6
NUM_REDUCERS = 2
WIRE = WireConfig(max_batch_records=16)

SICK = {"worker": "w0", "trigger": "fail-tasks"}


def _demo(seed: int = 0):
    return demo_job_and_input(
        "wc", ExecutionMode.BARRIERLESS, records=RECORDS,
        num_reducers=NUM_REDUCERS, num_maps=NUM_MAPS, seed=seed,
    )


def _broken_factory():
    raise ValueError("factory is broken")


def _baseline(seed: int = 0):
    job, pairs = _demo(seed)
    result = ThreadedEngine(map_slots=2, wire=WIRE).run(
        job, pairs, num_maps=NUM_MAPS
    )
    return normalized_output("wc", result)


class TestQuarantineEndToEnd:
    def test_sick_worker_is_quarantined_and_job_completes(self):
        with ClusterRuntime(
            3, wire=WIRE, task_retries=4, retry_mode="degrade",
            quarantine=QuarantineConfig(
                max_failures=2, window_s=30.0, probation_s=120.0
            ),
        ) as runtime:
            job, pairs = _demo()
            result = runtime.run_job(job, pairs, num_maps=NUM_MAPS, kill=SICK)
            assert normalized_output("wc", result) == _baseline()
            counters = runtime.obs.counters
            assert counters.get("cluster.quarantine.workers") == 1
            assert counters.get("cluster.tasks.failed") >= 2
            assert counters.get("cluster.tasks.retried") >= 1
            status = runtime.status()
            assert status["workers"]["w0"]["quarantined"] is True
            assert status["coordinator"]["quarantined_workers"] == ["w0"]

    def test_no_grants_to_quarantined_worker_afterwards(self, tmp_path):
        # The drain claim, proven from the write-ahead journal: once
        # w0 is quarantined, no map-grant or reduce-grant ever names it
        # again — not for the rest of the sick job, not for the next
        # job either.
        journal_path = str(tmp_path / "coordinator.journal")
        with ClusterRuntime(
            3, wire=WIRE, journal=journal_path,
            task_retries=4, retry_mode="degrade",
            quarantine=QuarantineConfig(
                max_failures=2, window_s=30.0, probation_s=120.0
            ),
        ) as runtime:
            job, pairs = _demo()
            runtime.run_job(
                job, pairs, num_maps=NUM_MAPS, job_id="sick", kill=SICK
            )
            assert runtime.obs.counters.get("cluster.quarantine.workers") == 1
            job, pairs = _demo(seed=1)
            second = runtime.run_job(
                job, pairs, num_maps=NUM_MAPS, job_id="clean"
            )
            assert normalized_output("wc", second) == _baseline(seed=1)

        records, _stats = replay_journal(journal_path)
        grants_to_w0 = [
            (kind, fields["job_id"])
            for kind, fields in records
            if kind in ("map-grant", "reduce-grant")
            and fields.get("worker") == "w0"
        ]
        # w0 received grants only before its quarantine — all within
        # the sick job, and never once for the clean one.
        assert all(job_id == "sick" for _kind, job_id in grants_to_w0)
        clean_grants = [
            fields["worker"]
            for kind, fields in records
            if kind in ("map-grant", "reduce-grant")
            and fields.get("job_id") == "clean"
        ]
        assert clean_grants and "w0" not in set(clean_grants)

    def test_probation_elapses_and_worker_rejoins(self):
        with ClusterRuntime(
            3, wire=WIRE, task_retries=4, retry_mode="degrade",
            quarantine=QuarantineConfig(
                max_failures=2, window_s=30.0, probation_s=1.0
            ),
        ) as runtime:
            job, pairs = _demo()
            result = runtime.run_job(job, pairs, num_maps=NUM_MAPS, kill=SICK)
            assert normalized_output("wc", result) == _baseline()
            counters = runtime.obs.counters
            assert counters.get("cluster.quarantine.workers") == 1
            deadline = time.monotonic() + 10.0
            while (
                counters.get("cluster.quarantine.rejoined") < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert counters.get("cluster.quarantine.rejoined") == 1
            assert runtime.status()["workers"]["w0"]["quarantined"] is False
            # A clean-slate w0 serves the next job (no chaos this time).
            job, pairs = _demo(seed=2)
            second = runtime.run_job(job, pairs, num_maps=NUM_MAPS)
            assert normalized_output("wc", second) == _baseline(seed=2)


class TestRetryBudgets:
    def test_fail_fast_surfaces_the_first_task_failure(self):
        with ClusterRuntime(2, wire=WIRE) as runtime:  # default fail_fast
            job, pairs = _demo()
            with pytest.raises(ClusterJobError, match="injected task failure"):
                runtime.run_job(job, pairs, num_maps=NUM_MAPS, kill=SICK)

    def test_degrade_exhausted_budget_raises_typed_error(self):
        # Both workers are sick, so retries can never land anywhere
        # healthy; once the budget is spent the failure is typed with
        # the task coordinates.
        with ClusterRuntime(
            2, wire=WIRE, task_retries=1, retry_mode="degrade",
            quarantine=QuarantineConfig(max_failures=0),
        ) as runtime:
            job, pairs = _demo()
            with pytest.raises(ClusterTaskError) as info:
                runtime.run_job(
                    job, pairs, num_maps=NUM_MAPS,
                    kill={"worker": "*", "trigger": "fail-tasks"},
                )
            assert info.value.kind in ("map", "reduce")
            assert info.value.index >= 0
            assert info.value.worker in ("w0", "w1")
            assert isinstance(info.value, ClusterJobError)

    def test_degrade_retries_transient_failures_to_completion(self):
        # Only the first two tasks fail (transiently sick worker); the
        # budget absorbs them and the job completes byte-identical,
        # below the quarantine threshold.
        with ClusterRuntime(
            2, wire=WIRE, task_retries=4, retry_mode="degrade",
            quarantine=QuarantineConfig(
                max_failures=10, window_s=30.0, probation_s=60.0
            ),
        ) as runtime:
            job, pairs = _demo()
            result = runtime.run_job(
                job, pairs, num_maps=NUM_MAPS,
                kill={"worker": "w0", "trigger": "fail-tasks", "count": 2},
            )
            assert normalized_output("wc", result) == _baseline()
            counters = runtime.obs.counters
            assert counters.get("cluster.tasks.retried") >= 1
            assert counters.get("cluster.quarantine.workers") == 0

    def test_degrade_with_no_healthy_worker_fails_the_job(self):
        with ClusterRuntime(
            1, wire=WIRE, retry_mode="degrade",
            quarantine=QuarantineConfig(max_failures=0),
        ) as runtime:
            job, pairs = _demo()
            with pytest.raises(ClusterJobError):
                # All of one worker's tasks fail and there is nowhere
                # else to retry: degrade fails the job rather than
                # spinning on the lone sick worker.
                runtime.run_job(
                    job, pairs, num_maps=NUM_MAPS,
                    kill={"worker": "w0", "trigger": "fail-tasks"},
                )


    @pytest.mark.parametrize(
        "factory, kind", [("reducer_factory", "reduce"), ("mapper_factory", "map")]
    )
    def test_failure_while_setting_a_task_up_is_reported(self, factory, kind):
        # The reduce attempt's ledger is built by probing a reducer
        # (checkpoint gate); that used to happen outside the executor's
        # try, so the thread died with a traceback, no task-failed went
        # out and the submitter waited out the whole job deadline.
        job, pairs = _demo()
        job = dataclasses.replace(job, **{factory: _broken_factory})
        recovery = RecoveryConfig(checkpoint=CheckpointPolicy(every_records=50))
        with ClusterRuntime(
            1, wire=WIRE, recovery=recovery, deadline_s=4.0,
            retry_mode="degrade",
        ) as runtime:
            started = time.monotonic()
            with pytest.raises(ClusterTaskError, match="factory is broken") as info:
                runtime.run_job(job, pairs, num_maps=2)
            assert time.monotonic() - started < 1.0
            assert info.value.kind == kind


class TestTrackerUnit:
    def test_threshold_and_dedup(self):
        tracker = QuarantineTracker(
            QuarantineConfig(max_failures=2, window_s=10.0, probation_s=5.0)
        )
        assert tracker.record_failure("w0", ("k", 1), now=0.0) is False
        # The same dedup key again is one failure, not two.
        assert tracker.record_failure("w0", ("k", 1), now=0.1) is False
        assert not tracker.is_quarantined("w0", 0.2)
        assert tracker.record_failure("w0", ("k", 2), now=0.2) is True
        assert tracker.is_quarantined("w0", 0.3)
        # Further failures accrue but never re-trigger.
        assert tracker.record_failure("w0", ("k", 3), now=0.4) is False
        assert tracker.entered == 1

    def test_window_slides_failures_out(self):
        tracker = QuarantineTracker(
            QuarantineConfig(max_failures=2, window_s=1.0, probation_s=5.0)
        )
        assert tracker.record_failure("w0", 1, now=0.0) is False
        # 2.0 is outside the window of the failure at 0.0 …
        assert tracker.record_failure("w0", 2, now=2.0) is False
        assert not tracker.is_quarantined("w0", 2.0)
        # … but 2.5 is inside the window of the failure at 2.0.
        assert tracker.record_failure("w0", 3, now=2.5) is True

    def test_sweep_rejoins_with_clean_slate(self):
        tracker = QuarantineTracker(
            QuarantineConfig(max_failures=1, window_s=10.0, probation_s=2.0)
        )
        assert tracker.record_failure("w0", 1, now=0.0) is True
        assert tracker.sweep(1.0) == []
        assert tracker.sweep(2.0) == ["w0"]
        assert not tracker.is_quarantined("w0", 2.0)
        assert tracker.failure_counts() == {}
        # Clean slate: re-quarantine needs a fresh over-budget run.
        assert tracker.record_failure("w0", 1, now=2.5) is True
        assert tracker.entered == 2

    def test_disabled_config_never_quarantines(self):
        tracker = QuarantineTracker(QuarantineConfig(max_failures=0))
        for index in range(50):
            assert tracker.record_failure("w0", index, now=0.0) is False
        assert not tracker.is_quarantined("w0", 0.0)
        assert tracker.quarantined(0.0) == []


@settings(max_examples=200)
@given(
    events=st.lists(
        st.tuples(
            st.sampled_from(["w0", "w1", "w2"]),
            st.integers(min_value=0, max_value=30),  # dedup key
            st.floats(min_value=0.0, max_value=100.0),  # time delta
            st.booleans(),  # sweep between events?
        ),
        min_size=1,
        max_size=60,
    ),
    max_failures=st.integers(min_value=1, max_value=4),
    window_s=st.floats(min_value=0.5, max_value=20.0),
    probation_s=st.floats(min_value=0.5, max_value=20.0),
)
def test_tracker_invariants(events, max_failures, window_s, probation_s):
    """Clock-driven property storm over the tracker:

    - a worker is quarantined iff its *newly-quarantines* report said
      so, and stays so for exactly the probation window;
    - a quarantined worker is always in ``quarantined(now)`` (so the
      coordinator's eligible set can never include it);
    - time never runs backwards for the tracker (we feed a
      monotonically non-decreasing clock) and sweeps are the only way
      out of quarantine.
    """
    tracker = QuarantineTracker(
        QuarantineConfig(
            max_failures=max_failures,
            window_s=window_s,
            probation_s=probation_s,
        )
    )
    now = 0.0
    quarantined_since: dict[str, float] = {}
    model_entered = 0
    for worker, key, delta, do_sweep in events:
        now += delta
        if do_sweep:
            for name in tracker.sweep(now):
                entered = quarantined_since.pop(name)
                assert now - entered >= probation_s
        newly = tracker.record_failure(worker, key, now)
        if newly:
            assert worker not in quarantined_since
            quarantined_since[worker] = now
            model_entered += 1
        for name, entered in quarantined_since.items():
            if now - entered < probation_s:
                assert tracker.is_quarantined(name, now)
                assert name in tracker.quarantined(now)
        for name in ("w0", "w1", "w2"):
            if name not in quarantined_since:
                # Never entered (or swept out): must be eligible.
                assert not tracker.is_quarantined(name, now)
    # The cumulative entry count matches the model exactly.
    assert tracker.entered == model_entered
