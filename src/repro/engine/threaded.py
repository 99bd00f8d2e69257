"""Threaded pipelined engine — structurally faithful to §3.1.

Hadoop's shuffle designates "an asynchronous thread and local buffer for
each Mapper" at every reducer.  This engine reproduces that structure with
real threads:

- Map tasks run on a bounded pool of ``map_slots`` worker threads.  Each
  task serialises its output as it is emitted
  (:func:`~repro.engine.base.run_map_task_encoded`) and publishes it to
  a :class:`~repro.engine.recovery.MapOutputService` as an epoch-tagged,
  sequenced batch stream (the in-memory analogue of Hadoop's mapper-local
  output files).
- **Barrier mode**: each reducer starts one fetch thread per mapper; each
  drains its mapper's stream into a *per-mapper local buffer*.  When every
  fetch thread has finished (the barrier), the buffers are merge-sorted and
  the reduce function runs over grouped keys.
- **Barrier-less mode**: the fetch threads deposit records into a *single
  shared FIFO buffer*, and a separate reduce thread consumes that buffer
  record-by-record, pipelined with the fetch — the paper's two design
  changes (bypass sort; single-record reduce invocation) exactly.

Fault tolerance (§8) is real here, not assumed: fetch threads retry with
backoff through :func:`~repro.engine.recovery.run_fetch_stream`, lost map
outputs are regenerated by re-executing the map task under a new epoch,
re-fetched records are deduplicated by sequence number so barrier-less
reducers never double-consume, and crashed reduce attempts are restarted
with a rebuilt partial store.

The reduce-attempt executors themselves live in
:mod:`repro.engine.runtime` — the transport-agnostic services layer this
engine shares with the networked cluster runtime (:mod:`repro.cluster`).
This module keeps what is engine-specific: thread scheduling, the
map-slot pool, attempt retry, and commit.

A run's stage timeline is its trace: ``task`` spans per map and reduce
task, with the ``shuffle`` / ``sort`` / ``reduce`` (barrier) or
``shuffle+reduce`` / ``output`` (barrier-less) op spans of each attempt
under them.  ``JobResult.stage_times`` is read off that job's spans
(:func:`repro.obs.stage_times`), so ``shuffle_done`` is when the last
reducer's shuffle op closed, not when the engine joined its threads.
"""

from __future__ import annotations

import queue
import tempfile
import threading
from typing import Sequence

from repro.core.job import JobSpec, split_input
from repro.core.types import (
    Counters,
    ExecutionMode,
    JobResult,
    Key,
    Record,
    Value,
)
from repro.engine.base import (
    Engine,
    finish_result,
    reducer_is_store_backed,
    run_map_task_encoded,
)
from repro.engine.faults import (
    DEFAULT_MAX_ATTEMPTS,
    FaultInjector,
    RetryingTaskRunner,
)
from repro.engine.fold import ReduceTaskRecovery
from repro.engine.recovery import (
    FetchFaultInjector,
    MapOutputService,
    RecoveryConfig,
)
from repro.engine.runtime import (
    ATTEMPT_STRIDE,
    RunInstruments,
    checkpoint_gate,
    run_barrier_reduce_attempt,
    run_pipelined_reduce_attempt,
)
from repro.dfs.wire import WireConfig
from repro.obs import JobObservability, MetricsTicker, stage_times


class ThreadedEngine(Engine):
    """Concurrent engine with per-mapper fetch threads per reducer.

    Supports the same Hadoop-style task attempts as :class:`LocalEngine`
    (``fault_injector`` crashes selected map/reduce attempts, retried up
    to ``max_attempts`` times) plus shuffle-level faults: a
    ``fetch_injector`` can fail/stall/drop individual fetches, lose map
    outputs, and crash reducers mid-consumption; ``recovery`` tunes the
    backoff and timeout policy used to survive them.
    """

    def __init__(
        self,
        map_slots: int = 4,
        fault_injector: FaultInjector | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        obs: JobObservability | None = None,
        fetch_injector: FetchFaultInjector | None = None,
        recovery: RecoveryConfig | None = None,
        wire: WireConfig | None = None,
    ) -> None:
        if map_slots <= 0:
            raise ValueError("map_slots must be positive")
        self.map_slots = map_slots
        self._fault_injector = fault_injector
        self._max_attempts = max_attempts
        self.obs = obs if obs is not None else JobObservability()
        self._fetch_injector = fetch_injector
        self._recovery = recovery if recovery is not None else RecoveryConfig()
        self._wire = wire if wire is not None else WireConfig()

    def run(
        self,
        job: JobSpec,
        pairs: Sequence[tuple[Key, Value]],
        num_maps: int = 4,
    ) -> JobResult:
        job.validate()
        counters = Counters()
        counters_lock = threading.Lock()
        obs = self.obs
        config = self._recovery
        injector = self._fetch_injector
        splits = split_input(pairs, num_maps)
        actual_maps = len(splits)

        ckpt_owned: tempfile.TemporaryDirectory | None = None
        ckpt_root = config.checkpoint_dir
        if config.checkpoint_enabled and ckpt_root is None:
            ckpt_owned = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
            ckpt_root = ckpt_owned.name
        # One fold ledger per reducer, shared by its primary attempts.
        make_recovery = checkpoint_gate(job, config, ckpt_root)
        recoveries = [make_recovery(i) for i in range(job.num_reducers)]

        # The map-output service replaces per-(mapper, reducer) queues:
        # outputs are retained after being read, so a restarted reduce
        # attempt can re-fetch from scratch, and a lost output can be
        # regenerated under a new epoch.
        service = MapOutputService(
            actual_maps,
            job.num_reducers,
            injector=injector,
            counters=obs.counters,
        )

        # Sampled time-series: the ticker reads the run's gauges on a
        # wall-clock interval for the whole job (the live-engine half of
        # the two-discipline metrics design; the simulator samples the
        # same names at virtual times).
        inst = RunInstruments()
        inst.register(obs)
        ticker = MetricsTicker(obs.metrics)

        errors: list[BaseException] = []
        errors_lock = threading.Lock()

        runner = RetryingTaskRunner(
            injector=self._fault_injector,
            max_attempts=self._max_attempts,
            obs=obs,
        )

        job_span = obs.tracer.open(
            job.name, "job", mode=job.mode.value, engine="threaded"
        )
        map_stage = obs.tracer.open("map", "stage", parent=job_span)
        # The reduce stage overlaps the map stage (fetch threads pull from
        # still-running mappers), so both stage spans open up front.
        reduce_stage = obs.tracer.open("reduce", "stage", parent=job_span)

        def regenerate(mapper_index: int) -> dict[int, list]:
            # Map tasks are pure functions of their split, so re-executing
            # one after its output is lost is always safe; the result is
            # published under a bumped epoch, telling in-flight fetch
            # streams to restart.  Its record-level counters are discarded
            # (the first execution already counted them).
            start = obs.tracer.now()
            produced = run_map_task_encoded(
                job, splits[mapper_index], Counters(), self._wire
            )
            obs.counters.increment("map.reexecutions")
            obs.counters.increment("task.attempts")
            obs.counters.increment("task.attempts.map")
            obs.counters.increment("task.retries")
            obs.tracer.record(
                f"map-{mapper_index}-reexec",
                "task",
                start,
                obs.tracer.now(),
                parent=job_span,
            )
            return produced

        service.regenerator = regenerate

        def map_worker(mapper_index: int, split) -> None:
            task_span = obs.tracer.open(
                f"map-{mapper_index}", "task", parent=map_stage
            )
            published = False
            try:
                def attempt():
                    attempt_counters = Counters()
                    produced = run_map_task_encoded(
                        job, split, attempt_counters, self._wire
                    )
                    return produced, attempt_counters

                partitions, local_counters = runner.run(
                    f"map-{mapper_index}", attempt, parent=task_span
                )
                service.publish(mapper_index, partitions)
                published = True
                with counters_lock:
                    counters.merge(local_counters)
                    counters.increment("map.tasks")
                obs.counters.merge_counters(local_counters)
                obs.counters.increment("map.tasks")
            except BaseException as exc:  # propagate to the driver
                with errors_lock:
                    errors.append(exc)
            finally:
                obs.tracer.close(task_span)
                if not published:
                    # Close the stream so reducers terminate; the recorded
                    # error still fails the job at the end of run().
                    service.publish(mapper_index, {})

        # Bounded map-slot pool: at most ``map_slots`` map tasks at once,
        # matching the per-node slot configuration of the testbed.
        map_queue: "queue.Queue" = queue.Queue()
        for mapper_index, split in enumerate(splits):
            map_queue.put((mapper_index, split))

        def map_slot_runner() -> None:
            while True:
                try:
                    mapper_index, split = map_queue.get_nowait()
                except queue.Empty:
                    return
                map_worker(mapper_index, split)

        map_threads = [
            threading.Thread(target=map_slot_runner, name=f"map-slot-{i}")
            for i in range(min(self.map_slots, actual_maps))
        ]

        output: dict[int, list[Record]] = {}
        output_lock = threading.Lock()

        def reduce_worker(reducer_index: int) -> None:
            task_span = obs.tracer.open(
                f"reduce-{reducer_index}", "task", parent=reduce_stage
            )
            try:
                next_attempt = 0

                def attempt_body():
                    nonlocal next_attempt
                    this_attempt = next_attempt
                    next_attempt += 1
                    return self._reduce_attempt(
                        job,
                        service,
                        reducer_index,
                        actual_maps,
                        task_span,
                        this_attempt,
                        inst=inst,
                        recovery=recoveries[reducer_index],
                    )

                task_id = f"reduce-{reducer_index}"
                produced, local_counters = runner.run(
                    task_id, attempt_body, parent=task_span
                )
                retries = runner.attempts_made.get(task_id, 1) - 1
                if retries > 0:
                    # Each restarted attempt re-fetched its partition and
                    # (if store-backed: probed only now, a clean run never
                    # asks) rebuilt the partial store.
                    obs.counters.increment("reduce.restarts", retries)
                    if reducer_is_store_backed(job):
                        obs.counters.increment("store.resets", retries)
                with output_lock:
                    output[reducer_index] = produced
                with counters_lock:
                    counters.merge(local_counters)
                    counters.increment("reduce.tasks")
                obs.counters.merge_counters(local_counters)
                obs.counters.increment("reduce.tasks")
                # Materialise the fetch-accounting keys even for an empty
                # partition, keeping clean-run counter dicts identical
                # across engines.
                obs.counters.increment("shuffle.records.fetched", 0)
                obs.counters.increment("shuffle.records.consumed", 0)
            except BaseException as exc:
                with errors_lock:
                    errors.append(exc)
                with output_lock:
                    output.setdefault(reducer_index, [])
            finally:
                obs.tracer.close(task_span)

        reduce_threads = [
            threading.Thread(target=reduce_worker, args=(i,), name=f"reduce-{i}")
            for i in range(job.num_reducers)
        ]

        ticker.start()
        try:
            for thread in map_threads:
                thread.start()
            for thread in reduce_threads:
                thread.start()
            for thread in map_threads:
                thread.join()
            obs.tracer.close(map_stage)
            for thread in reduce_threads:
                thread.join()
        finally:
            ticker.stop()
            if ckpt_owned is not None:
                ckpt_owned.cleanup()
        obs.tracer.close(reduce_stage)
        obs.tracer.close(job_span)

        if errors:
            raise errors[0]
        return finish_result(
            job, output, counters, stage_times(obs.tracer.job_spans(job_span))
        )

    # -- reduce attempts -------------------------------------------------------

    def _reduce_attempt(
        self,
        job: JobSpec,
        service: MapOutputService,
        reducer_index: int,
        num_maps: int,
        task_span,
        attempt: int,
        inst: RunInstruments | None = None,
        recovery: ReduceTaskRecovery | None = None,
    ) -> tuple[list[Record], Counters]:
        """One reduce-task attempt: fetch, (sort,) reduce.

        Delegates to the shared executors in :mod:`repro.engine.runtime`.
        ``attempt`` (0 for the first) offsets fetch attempt numbering so
        every attempt draws independent fault injections.  ``inst``
        carries the run's gauge plumbing; ``recovery`` carries
        checkpoint/resume state across this reducer's attempts.
        """
        attempt_base = attempt * ATTEMPT_STRIDE
        if job.mode is ExecutionMode.BARRIER:
            return run_barrier_reduce_attempt(
                job, service, reducer_index, num_maps, task_span,
                attempt_base,
                obs=self.obs,
                config=self._recovery,
                injector=self._fetch_injector,
                wire=self._wire,
                inst=inst,
            )
        return run_pipelined_reduce_attempt(
            job, service, reducer_index, num_maps, task_span,
            attempt_base,
            obs=self.obs,
            config=self._recovery,
            injector=self._fetch_injector,
            wire=self._wire,
            inst=inst,
            recovery=recovery,
        )
