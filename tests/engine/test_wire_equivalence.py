"""Differential equivalence: the wire codec must be invisible.

Every engine that shuffles moves sealed wire frames, and there is no
switch to turn them off.  The codec-free reference is the in-process
composition of the public layer functions — ``run_map_task`` →
``partition_records`` → ``barrier_merge_sort`` / ``interleave_arrival``
→ ``run_reduce_task``, handing ``Record`` lists from one to the next —
which is what :class:`~repro.core.memo.MemoizingEngine` composes.  These
tests run the full app matrix through the threaded and streaming engines
and assert the data plane matches that reference: identical outputs,
identical record-level counters, and wire counters that are present and
reconcile with the record counts.
"""

from __future__ import annotations

import pytest

from repro.apps.demo import demo_job_and_input, normalized_output
from repro.apps.registry import REGISTRY
from repro.cluster import ClusterEngine
from repro.core.memo import MemoizingEngine
from repro.core.types import ExecutionMode
from repro.dfs.wire import (
    BATCHES_COUNTER,
    RAW_BYTES_COUNTER,
    WIRE_BYTES_COUNTER,
    WireConfig,
)
from repro.engine.streaming import StreamingEngine
from repro.engine.threaded import ThreadedEngine
from repro.obs import JobObservability

APPS = [descriptor.short_name for descriptor in REGISTRY]
MODES = [ExecutionMode.BARRIER, ExecutionMode.BARRIERLESS]
NUM_MAPS = 3
PUSH_RECORDS = 100

WIRE = WireConfig()

_WIRE_COUNTERS = (RAW_BYTES_COUNTER, WIRE_BYTES_COUNTER, BATCHES_COUNTER)


def _job(app, mode):
    return demo_job_and_input(app, mode, records=300, seed=5)


def _reference(app, job, pairs, num_maps):
    """Output and counters of the codec-free composition."""
    result = MemoizingEngine().run(job, pairs, num_maps)
    return normalized_output(app, result), result.counters.as_dict()


def _assert_matches_reference(app, job, pairs, num_maps, result) -> None:
    """Same output as the reference, and every counter it keeps equal.

    The reference counts what the layers count — map input and output,
    combiner and store statistics, each app's own counters, task totals —
    and no transport: a frame that lost, duplicated or reordered a record
    shows here as well as in the output.
    """
    want_output, want_counters = _reference(app, job, pairs, num_maps)
    assert normalized_output(app, result) == want_output, f"{app}: diverged"
    got = result.counters.as_dict()
    assert {name: got.get(name) for name in want_counters} == want_counters


def _check_reconciliation(counters, config: WireConfig) -> None:
    """The wire counters are present, ``raw >= wire``, batches bound records."""
    for name in _WIRE_COUNTERS:
        assert name in counters, name
    raw = counters[RAW_BYTES_COUNTER]
    wire = counters[WIRE_BYTES_COUNTER]
    batches = counters[BATCHES_COUNTER]
    records = counters.get("shuffle.records", 0)
    assert raw >= wire, f"compression grew the payload: {raw} < {wire}"
    assert batches * config.max_batch_records >= records
    if records:
        assert batches > 0 and raw > 0


def _run_threaded(app, mode):
    obs = JobObservability()
    job, pairs = _job(app, mode)
    result = ThreadedEngine(map_slots=2, obs=obs, wire=WIRE).run(
        job, pairs, num_maps=NUM_MAPS
    )
    return job, pairs, result, obs.counters.as_dict()


def _run_cluster(app, mode):
    obs = JobObservability()
    job, pairs = _job(app, mode)
    ClusterEngine(workers=2, obs=obs, wire=WIRE).run(job, pairs, num_maps=NUM_MAPS)
    return obs.counters.as_dict()


def _run_streaming(app):
    job, pairs = _job(app, ExecutionMode.BARRIERLESS)
    engine = StreamingEngine(job, obs=JobObservability(), wire=WIRE)
    for start in range(0, len(pairs), PUSH_RECORDS):
        engine.push(pairs[start : start + PUSH_RECORDS])
    result = engine.close()
    return job, pairs, result, engine.obs.counters.as_dict()


@pytest.mark.parametrize("mode", MODES, ids=[mode.value for mode in MODES])
@pytest.mark.parametrize("app", APPS)
def test_threaded_wire_on_off_equivalent(app, mode):
    """Threaded, framed end to end, against the codec-free reference."""
    job, pairs, result, counters = _run_threaded(app, mode)
    _assert_matches_reference(app, job, pairs, NUM_MAPS, result)
    _check_reconciliation(counters, WIRE)


@pytest.mark.parametrize("app", APPS)
def test_streaming_wire_on_off_equivalent(app):
    """Streaming (journal of frames) against the codec-free reference.

    Each push is one map task, so the reference runs as many.
    """
    job, pairs, result, counters = _run_streaming(app)
    pushes = -(-len(pairs) // PUSH_RECORDS)
    _assert_matches_reference(app, job, pairs, pushes, result)
    _check_reconciliation(counters, WIRE)


@pytest.mark.parametrize("app", ["wc", "knn"])
def test_wire_counters_identical_across_engines(app):
    """The wire's byte accounting is engine-invariant, not just present."""
    *_, threaded = _run_threaded(app, ExecutionMode.BARRIERLESS)
    cluster = _run_cluster(app, ExecutionMode.BARRIERLESS)
    for name in _WIRE_COUNTERS:
        assert threaded[name] == cluster[name], name
