"""Differential matrix for checkpointed reducer recovery (resume vs refold).

The contract: with checkpointing on, a reduce attempt killed mid-fold
resumes from its last valid snapshot and replays only the un-consumed
tail — and the output stays byte-identical to a fault-free run, in both
the threaded and streaming engines, for every bundled application.  The
suite also pins the fail-closed paths: a snapshot whose source mapper
restarted (stale epoch) and a torn snapshot must both fall back to a
full refold, never resume from invalid state, and the four-way record
accounting (``restored + replayed + refolded + live``) must reconcile.
"""

from __future__ import annotations

import os

import pytest

from repro.apps.demo import APP_CHOICES, demo_job_and_input, normalized_output
from repro.core.types import ExecutionMode
from repro.dfs.wire import WireConfig
from repro.engine.base import reducer_is_checkpointable, reducer_is_store_backed
from repro.engine.recovery import (
    BackoffPolicy,
    FetchFaultInjector,
    RecoveryConfig,
)
from repro.engine.streaming import StreamingEngine
from repro.engine.threaded import ThreadedEngine
from repro.memory.checkpoint import CheckpointPolicy, write_checkpoint
from repro.obs import JobObservability

RECORDS = 300
NUM_MAPS = 3
NUM_REDUCERS = 2

#: Small wire batches: threaded snapshots cut at batch boundaries, so a
#: 16-record batch keeps the record-count trigger meaningful at this
#: input size (default 256-record batches would never checkpoint).
WIRE = WireConfig(max_batch_records=16)

#: Kill reducer 0 late enough that snapshots exist before the crash.
CRASH_AFTER = 100

#: Apps whose reducer both folds into a store and opts into snapshots.
CHECKPOINTABLE = ("knn", "pp", "sort", "wc")


def _recovery(checkpoint_dir=None, *, every_records=20):
    return RecoveryConfig(
        fetch_timeout_s=0.02,
        backoff=BackoffPolicy(base_s=0.0005, cap_s=0.005),
        checkpoint=CheckpointPolicy(every_records=every_records),
        checkpoint_dir=checkpoint_dir,
    )


#: Same fast-failing tuning with checkpointing off: the refold baseline.
FAST = RecoveryConfig(
    fetch_timeout_s=0.02,
    backoff=BackoffPolicy(base_s=0.0005, cap_s=0.005),
)

_baselines: dict[str, object] = {}


def _demo(app: str):
    return demo_job_and_input(
        app, ExecutionMode.BARRIERLESS, records=RECORDS,
        num_reducers=NUM_REDUCERS, num_maps=NUM_MAPS,
    )


def _baseline(app: str):
    """Fault-free normalized output, computed once per app."""
    if app not in _baselines:
        job, pairs = _demo(app)
        result = ThreadedEngine(map_slots=2).run(job, pairs, num_maps=NUM_MAPS)
        _baselines[app] = normalized_output(app, result)
    return _baselines[app]


def _run_threaded(app, recovery, *, crash_after=CRASH_AFTER, obs=None):
    job, pairs = _demo(app)
    engine = ThreadedEngine(
        map_slots=2,
        fetch_injector=FetchFaultInjector(crash_reducer_after={0: crash_after}),
        recovery=recovery,
        wire=WIRE,
        obs=obs or JobObservability(),
    )
    return engine.run(job, pairs, num_maps=NUM_MAPS)


def _run_streaming(app, recovery, *, crash_after=CRASH_AFTER, obs=None, seed=0):
    job, pairs = _demo(app)
    engine = StreamingEngine(
        job,
        obs=obs or JobObservability(),
        fault_injector=FetchFaultInjector(
            crash_reducer_after={0: crash_after}, seed=seed
        ),
        recovery=recovery,
        wire=WIRE,
    )
    step = max(1, len(pairs) // 10)
    for start in range(0, len(pairs), step):
        engine.push(pairs[start : start + step])
    return engine.close()


def _bucket_totals(obs):
    return {
        name: obs.counters.get(f"reduce.{name}_records")
        for name in ("restored", "replayed", "refolded", "live")
    }


# ---------------------------------------------------------------------------
# the matrix: every app x both engines, reducer killed mid-fold
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app", APP_CHOICES)
def test_threaded_kill_resume_output_identical(app):
    result = _run_threaded(app, _recovery())
    assert normalized_output(app, result) == _baseline(app)


@pytest.mark.parametrize("app", APP_CHOICES)
def test_streaming_kill_resume_output_identical(app):
    result = _run_streaming(app, _recovery(every_records=15), crash_after=40)
    assert normalized_output(app, result) == _baseline(app)


def test_checkpointable_gate_matches_app_list():
    # The engines only checkpoint store-backed reducers that opted in;
    # pin which bundled apps that is so the matrix above stays honest.
    for app in APP_CHOICES:
        job, _pairs = _demo(app)
        eligible = reducer_is_store_backed(job) and reducer_is_checkpointable(job)
        assert eligible == (app in CHECKPOINTABLE), app


# ---------------------------------------------------------------------------
# resume does strictly less refolding than the refold baseline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app", CHECKPOINTABLE)
def test_threaded_resume_beats_refold(app):
    ckpt_obs = JobObservability()
    result = _run_threaded(app, _recovery(), obs=ckpt_obs)
    assert normalized_output(app, result) == _baseline(app)

    refold_obs = JobObservability()
    result = _run_threaded(app, FAST, obs=refold_obs)
    assert normalized_output(app, result) == _baseline(app)

    assert ckpt_obs.counters.get("reduce.checkpoint.writes") >= 1
    assert ckpt_obs.counters.get("reduce.checkpoint.restores") >= 1
    assert ckpt_obs.counters.get("reduce.restored_records") > 0
    # The headline claim: resuming replays strictly fewer records than
    # the refold baseline re-folds for the same injected crash.
    assert (
        ckpt_obs.counters.get("reduce.replayed_records")
        < refold_obs.counters.get("reduce.refolded_records")
    )
    # Four-way accounting: the checkpointed run classifies at least as
    # many records (it covers every checkpoint-active reducer, while the
    # refold baseline only classifies the crashed one's partition).
    assert sum(_bucket_totals(ckpt_obs).values()) >= sum(
        _bucket_totals(refold_obs).values()
    )


def test_threaded_sort_accounting_covers_partition():
    # sort maps records 1:1, so the four buckets must sum to the input.
    obs = JobObservability()
    _run_threaded("sort", _recovery(), obs=obs)
    assert sum(_bucket_totals(obs).values()) == RECORDS


@pytest.mark.parametrize("app", ("grep", "ga", "bs"))
def test_non_checkpointable_apps_never_snapshot(app):
    # Identity/windowed reducers emit during the fold; a snapshot of
    # their store could not be resumed without re-emitting, so the
    # engine must not write one even when the policy asks for it.
    obs = JobObservability()
    result = _run_threaded(app, _recovery(), obs=obs)
    assert normalized_output(app, result) == _baseline(app)
    assert obs.counters.get("reduce.checkpoint.writes") == 0


def test_streaming_resume_beats_refold():
    ckpt_obs = JobObservability()
    result = _run_streaming(
        "wc", _recovery(every_records=15), crash_after=40, obs=ckpt_obs
    )
    assert normalized_output("wc", result) == _baseline("wc")

    refold_obs = JobObservability()
    result = _run_streaming("wc", FAST, crash_after=40, obs=refold_obs)
    assert normalized_output("wc", result) == _baseline("wc")

    assert ckpt_obs.counters.get("reduce.checkpoint.restores") >= 1
    assert ckpt_obs.counters.get("reduce.restored_records") >= 15
    assert (
        ckpt_obs.counters.get("reduce.replayed_records")
        < refold_obs.counters.get("reduce.refolded_records")
    )


def test_streaming_kill_resume_deterministic():
    # Same seed, same pushes: the resumed run must land on identical
    # output and identical record classification both times.
    outputs, buckets = [], []
    for _attempt in range(2):
        obs = JobObservability()
        result = _run_streaming(
            "wc", _recovery(every_records=15), crash_after=40, obs=obs, seed=7
        )
        outputs.append(normalized_output("wc", result))
        buckets.append(_bucket_totals(obs))
    assert outputs[0] == outputs[1] == _baseline("wc")
    assert buckets[0] == buckets[1]


# ---------------------------------------------------------------------------
# fail-closed paths: stale epochs and torn snapshots refold, never resume
# ---------------------------------------------------------------------------


def _poisoned_checkpoint(tmp_path, meta):
    # A snapshot whose entries would visibly corrupt sort's output if a
    # restart ever restored it.
    directory = os.path.join(str(tmp_path), "reduce-0")
    write_checkpoint(directory, [("zzz-poison", 10**9)], meta=meta)
    return directory


def test_stale_epoch_invalidates_whole_checkpoint(tmp_path):
    # Epoch 99 can never match a fresh service (epochs start at 0): the
    # engine must discard the snapshot and refold, not resume from it.
    _poisoned_checkpoint(
        tmp_path, meta={"progress": {0: (5, 99, 50)}}
    )
    obs = JobObservability()
    job, pairs = _demo("sort")
    engine = ThreadedEngine(
        map_slots=2,
        recovery=_recovery(checkpoint_dir=str(tmp_path)),
        wire=WIRE,
        obs=obs,
    )
    result = engine.run(job, pairs, num_maps=NUM_MAPS)
    assert normalized_output("sort", result) == _baseline("sort")
    assert obs.counters.get("reduce.checkpoint.stale") >= 1
    assert obs.counters.get("reduce.checkpoint.restores") == 0
    assert obs.counters.get("reduce.restored_records") == 0


def test_torn_checkpoint_falls_back_to_refold(tmp_path):
    directory = _poisoned_checkpoint(
        tmp_path, meta={"progress": {0: (5, 0, 50)}}
    )
    # Tear the tail off: the CRC/trailer pass must reject the file.
    path = os.path.join(directory, "checkpoint.wire")
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 4)
    obs = JobObservability()
    job, pairs = _demo("sort")
    engine = ThreadedEngine(
        map_slots=2,
        recovery=_recovery(checkpoint_dir=str(tmp_path)),
        wire=WIRE,
        obs=obs,
    )
    result = engine.run(job, pairs, num_maps=NUM_MAPS)
    assert normalized_output("sort", result) == _baseline("sort")
    assert obs.counters.get("reduce.checkpoint.invalid") >= 1
    assert obs.counters.get("reduce.checkpoint.restores") == 0
