"""Concurrent multi-job regression: one runtime, many jobs at once.

Before PR 9 the coordinator drained its inbox on the submitting thread
and the runtime numbered checkpoint directories with an unsynchronised
counter — two concurrent ``run_job`` calls could interleave messages
and share a checkpoint subtree.  These tests pin the fixed behaviour:
jobs submitted from many threads over one :class:`ClusterRuntime`
finish byte-identical to serial runs, checkpoint roots are namespaced
by job id, and the shuffle store never mixes jobs' partitions.
"""

from __future__ import annotations

import os
import threading

from repro.apps.demo import demo_job_and_input, normalized_output
from repro.cluster import ClusterRuntime, cluster_recovery
from repro.core.types import ExecutionMode
from repro.dfs.wire import WireConfig
from repro.memory.checkpoint import CheckpointPolicy

APPS = ("wc", "grep", "sort")
RECORDS = 120


def _demo(app: str, seed: int):
    return demo_job_and_input(
        app,
        ExecutionMode.BARRIERLESS,
        records=RECORDS,
        num_reducers=2,
        num_maps=2,
        seed=seed,
    )


def _serial_outputs(runtime: ClusterRuntime) -> dict[str, object]:
    outputs = {}
    for index, app in enumerate(APPS):
        job, pairs = _demo(app, seed=index)
        result = runtime.run_job(job, pairs, num_maps=2)
        outputs[app] = normalized_output(app, result)
    return outputs


def test_concurrent_jobs_match_serial_outputs():
    wire = WireConfig(max_batch_records=32)
    with ClusterRuntime(2, wire=wire) as runtime:
        expected = _serial_outputs(runtime)

        results: dict[str, object] = {}
        errors: list[BaseException] = []

        def run_one(app: str, seed: int) -> None:
            try:
                job, pairs = _demo(app, seed=seed)
                result = runtime.run_job(job, pairs, num_maps=2)
                results[app] = normalized_output(app, result)
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run_one, args=(app, index))
            for index, app in enumerate(APPS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, errors
        assert results == expected

        # The coordinator really interleaved them: every job is on the
        # books and complete.
        status = runtime.status()
        done = [j for j in status["jobs"].values() if j["done"]]
        assert len(done) == 2 * len(APPS)


def test_checkpoint_roots_are_namespaced_by_job_id(tmp_path):
    # Two concurrent checkpointing jobs must snapshot into disjoint
    # per-job subtrees of the shared checkpoint directory — the old
    # runtime counter handed both threads the same subdir.
    recovery = cluster_recovery(
        checkpoint=CheckpointPolicy(every_records=10),
        checkpoint_dir=str(tmp_path),
    )
    wire = WireConfig(max_batch_records=16)
    with ClusterRuntime(2, wire=wire, recovery=recovery) as runtime:
        outputs: dict[int, object] = {}
        errors: list[BaseException] = []

        def run_one(seed: int) -> None:
            try:
                job, pairs = _demo("wc", seed=seed)
                result = runtime.run_job(job, pairs, num_maps=2)
                outputs[seed] = normalized_output("wc", result)
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run_one, args=(seed,))
            for seed in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, errors
        assert outputs[0] != outputs[1]  # different seeds, different data

        job_dirs = sorted(
            entry for entry in os.listdir(tmp_path)
            if entry.startswith("job-")
        )
        assert len(job_dirs) == 2, job_dirs

        # Serial reruns agree — the concurrent checkpoints never bled
        # into each other's state.
        for seed in (0, 1):
            job, pairs = _demo("wc", seed=seed)
            result = runtime.run_job(job, pairs, num_maps=2)
            assert normalized_output("wc", result) == outputs[seed]


def test_shuffle_store_holds_are_keyed_by_job() -> None:
    # Unit-level pin for the store half of the audit: two jobs' mapper-0
    # outputs coexist under distinct (job, mapper, epoch) keys.
    from repro.cluster.shuffle import ShuffleStore

    store = ShuffleStore()
    for job_id in ("job-1", "job-2"):
        store.publish(job_id, mapper=0, epoch=0, batches={0: []})
    held = store.held()
    assert ("job-1", 0, 0) in held and ("job-2", 0, 0) in held
    # Dropping one job leaves the other untouched.
    store.drop_job("job-1")
    held = store.held()
    assert ("job-1", 0, 0) not in held and ("job-2", 0, 0) in held


def test_shuffle_store_bytes_held_is_a_running_total() -> None:
    # ``worker.store.bytes`` is sampled under the lock fetches are served
    # under, so it must not walk the frames: they are sized once, at
    # publish, and the total then moves by differences.
    from repro.cluster.shuffle import ShuffleStore

    touched = []

    class Frame:
        def __init__(self, size: int) -> None:
            self._size = size

        @property
        def frame(self) -> bytes:
            touched.append(self._size)
            return b"x" * self._size

    store = ShuffleStore()
    held: dict[tuple[str, int], dict] = {}

    def publish(job_id: str, mapper: int, epoch: int, sizes: dict) -> None:
        batches = {r: [Frame(n) for n in stream] for r, stream in sizes.items()}
        store.publish(job_id, mapper, epoch, batches)
        held[job_id, mapper] = sizes

    def recomputed() -> int:
        return sum(n for sizes in held.values() for s in sizes.values() for n in s)

    assert store.bytes_held() == 0
    publish("job-1", 0, 0, {0: [10, 20], 1: [5]})
    publish("job-1", 1, 0, {0: [], 1: [7, 7, 7]})
    publish("job-2", 0, 0, {0: [100]})
    assert store.bytes_held() == recomputed() == 156
    # A republished (job, mapper) replaces the epoch it supersedes.
    publish("job-1", 0, 1, {0: [1], 1: [2, 3]})
    assert store.bytes_held() == recomputed() == 127
    publish("job-1", 0, 2, {})
    assert store.bytes_held() == recomputed() == 121
    del touched[:]
    for _ in range(3):
        assert store.bytes_held() == 121
    assert store.read("job-1", 1, 1, 2)[1] is not None
    store.drop_job("job-1")
    del held["job-1", 0], held["job-1", 1]
    assert store.bytes_held() == recomputed() == 100
    store.drop_job("job-1")  # idempotent
    store.drop_job("job-2")
    assert store.bytes_held() == 0 and store.held() == []
    assert touched == []  # no frame looked at after its publish
