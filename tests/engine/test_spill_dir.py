"""A configured ``MemoryConfig.spill_dir`` is shared safely and left empty.

Every reduce task's store and every map task's output buffer names its
files from a per-instance counter, so each gets its own directory under
the configured one; and whoever built a store closes it when the task is
over — after a clean run, after a crashed attempt, after a preempt.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.apps.demo import demo_job_and_input, normalized_output
from repro.core.job import MemoryConfig, split_input
from repro.core.types import Counters, ExecutionMode
from repro.dfs.wire import WireConfig
from repro.engine.base import run_map_task_encoded
from repro.engine.fold import ReducePreemptedError
from repro.engine.local import LocalEngine
from repro.engine.recovery import (
    FetchFaultInjector,
    MapOutputService,
    RecoveryConfig,
)
from repro.engine.runtime import run_pipelined_reduce_attempt
from repro.engine.threaded import ThreadedEngine
from repro.obs import JobObservability

NUM_MAPS = 4


def _sort_job(spill_dir, store="spillmerge", records=5000):
    job, pairs = demo_job_and_input(
        "sort", ExecutionMode.BARRIERLESS, records=records,
        num_reducers=2, num_maps=NUM_MAPS,
    )
    job.memory = MemoryConfig(
        store=store,
        spill_threshold_bytes=32 << 10,
        kv_cache_bytes=32 << 10,
        spill_dir=str(spill_dir),
    )
    return job, pairs


def test_concurrent_reducers_share_an_explicit_spill_dir(tmp_path):
    job, pairs = _sort_job(tmp_path)
    oracle = normalized_output("sort", LocalEngine().run(job, pairs, NUM_MAPS))
    for _run in range(20):
        result = ThreadedEngine().run(job, pairs, num_maps=NUM_MAPS)
        assert result.counters.get("store.spills") > 0
        assert normalized_output("sort", result) == oracle
    assert os.listdir(tmp_path) == []


def test_concurrent_map_tasks_share_an_explicit_spill_dir(tmp_path):
    job, pairs = _sort_job(tmp_path, records=2000)
    job.map_output_buffer_bytes = 4 << 10
    oracle = normalized_output("sort", LocalEngine().run(job, pairs, NUM_MAPS))
    for _run in range(5):
        result = ThreadedEngine().run(job, pairs, num_maps=NUM_MAPS)
        assert result.counters.get("map.output_spills") > NUM_MAPS
        assert normalized_output("sort", result) == oracle
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("store", ["spillmerge", "kvstore"])
@pytest.mark.parametrize("engine", [LocalEngine, ThreadedEngine])
def test_spill_dir_is_empty_after_a_clean_run(tmp_path, engine, store):
    job, pairs = _sort_job(tmp_path, store=store, records=2000)
    engine().run(job, pairs, num_maps=NUM_MAPS)
    assert os.listdir(tmp_path) == []


def test_spill_dir_is_empty_after_a_crashed_and_retried_reducer(tmp_path):
    job, pairs = _sort_job(tmp_path, records=2000)
    obs = JobObservability()
    ThreadedEngine(
        obs=obs,
        fetch_injector=FetchFaultInjector(crash_reducer_after={0: 700}),
    ).run(job, pairs, num_maps=NUM_MAPS)
    assert obs.counters.get("reduce.restarts") == 1
    assert os.listdir(tmp_path) == []


class _PreemptAt(FetchFaultInjector):
    """Sets ``stop`` once ``at`` records are folded; notes what is on disk."""

    def __init__(self, at, stop, directory):
        super().__init__()
        self._at, self._stop, self._directory = at, stop, directory
        self.on_disk: list[str] = []

    def check_reduce(self, reducer, consumed):
        if consumed == self._at:
            self.on_disk = os.listdir(self._directory)
            self._stop.set()


def test_spill_dir_is_empty_after_a_preempted_attempt(tmp_path):
    job, pairs = _sort_job(tmp_path, records=2000)
    job.num_reducers = 1
    wire = WireConfig(max_batch_records=64)
    service = MapOutputService(NUM_MAPS, 1)
    for mapper, split in enumerate(split_input(pairs, NUM_MAPS)):
        service.publish(mapper, run_map_task_encoded(job, split, Counters(), wire))
    stop = threading.Event()
    injector = _PreemptAt(1500, stop, tmp_path)
    with pytest.raises(ReducePreemptedError):
        run_pipelined_reduce_attempt(
            job, service, 0, NUM_MAPS, None, 0,
            obs=JobObservability(), config=RecoveryConfig(), wire=wire,
            injector=injector, stop=stop,
        )
    assert injector.on_disk  # it had spilled by the time it was stopped
    assert os.listdir(tmp_path) == []
