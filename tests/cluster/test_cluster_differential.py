"""Differential matrix: the TCP cluster must match the threaded engine.

Every bundled application runs on real forked worker processes — map
outputs shuffled over sockets as wire frames, coordination over the
framed RPC protocol — and the canonicalized output must be byte-
identical to the in-process threaded engine on the same input, for
worker counts 1, 2 and 4 (single-worker loopback, the minimal
distribution, and more workers than reducers).  Runtimes are shared
per worker count so the matrix pays the fork cost once, and the
barrier mode rides the same data plane on a subset.
"""

from __future__ import annotations

import pytest

from repro.apps.demo import APP_CHOICES, demo_job_and_input, normalized_output
from repro.cluster import ClusterRuntime
from repro.core.types import ExecutionMode
from repro.dfs.wire import WireConfig
from repro.engine.threaded import ThreadedEngine

RECORDS = 200
NUM_MAPS = 3
NUM_REDUCERS = 2
WORKER_COUNTS = (1, 2, 4)

#: Small batches so multi-batch streams (and their sequencing) are
#: actually exercised at this input size.
WIRE = WireConfig(max_batch_records=32)

_baselines: dict = {}
_runtimes: dict = {}


def _demo(app: str, mode: ExecutionMode):
    return demo_job_and_input(
        app, mode, records=RECORDS,
        num_reducers=NUM_REDUCERS, num_maps=NUM_MAPS,
    )


def _baseline(app: str, mode: ExecutionMode):
    """Canonicalized threaded-engine output, computed once per cell."""
    key = (app, mode)
    if key not in _baselines:
        job, pairs = _demo(app, mode)
        result = ThreadedEngine(map_slots=2, wire=WIRE).run(
            job, pairs, num_maps=NUM_MAPS
        )
        _baselines[key] = normalized_output(app, result)
    return _baselines[key]


@pytest.fixture(scope="module")
def runtime_for():
    """Lazily started, module-shared runtime per worker count."""

    def get(workers: int) -> ClusterRuntime:
        if workers not in _runtimes:
            _runtimes[workers] = ClusterRuntime(workers, wire=WIRE)
        return _runtimes[workers]

    yield get
    while _runtimes:
        _runtimes.popitem()[1].shutdown()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("app", APP_CHOICES)
def test_barrierless_output_matches_threaded(runtime_for, app, workers):
    job, pairs = _demo(app, ExecutionMode.BARRIERLESS)
    result = runtime_for(workers).run_job(job, pairs, num_maps=NUM_MAPS)
    assert normalized_output(app, result) == _baseline(
        app, ExecutionMode.BARRIERLESS
    )


@pytest.mark.parametrize("app", ("wc", "grep", "sort"))
def test_barrier_output_matches_threaded(runtime_for, app):
    job, pairs = _demo(app, ExecutionMode.BARRIER)
    result = runtime_for(2).run_job(job, pairs, num_maps=NUM_MAPS)
    assert normalized_output(app, result) == _baseline(
        app, ExecutionMode.BARRIER
    )


def test_output_is_keyed_in_reducer_order(runtime_for):
    # Spread placement puts reducer 0 on w0, which folds 3 ms per record,
    # so reducer 1 commits first; the result is still keyed 0, 1.
    job, pairs = _demo("wc", ExecutionMode.BARRIERLESS)
    result = runtime_for(2).run_job(
        job, pairs, num_maps=NUM_MAPS,
        kill={"worker": "w0", "trigger": "reduce-delay", "delay_ms": 3},
    )
    assert list(result.output) == sorted(result.output) == [0, 1]
    assert normalized_output("wc", result) == _baseline(
        "wc", ExecutionMode.BARRIERLESS
    )


def test_cluster_counters_account_for_work(runtime_for):
    """The coordinator merges task counters into a coherent job view."""
    job, pairs = _demo("wc", ExecutionMode.BARRIERLESS)
    result = runtime_for(2).run_job(job, pairs, num_maps=NUM_MAPS)
    counters = result.counters
    assert counters.get("map.tasks") == NUM_MAPS
    assert counters.get("reduce.tasks") == NUM_REDUCERS
    assert counters.get("map.output_records") == RECORDS
    assert counters.get("shuffle.records.consumed") == RECORDS
    # The data plane really ran through the wire codec.
    assert counters.get("shuffle.bytes.wire") > 0
