"""Deterministic single-threaded reference engine.

``LocalEngine`` is the semantics oracle: it executes jobs with no
concurrency, so its output is exactly reproducible, and every other engine
(threaded, streaming, cluster) is tested for output equivalence
against it.  Both shuffle modes are supported:

- **barrier**: buffer all map output per reducer, merge-sort it, invoke
  ``reduce(key, values)`` once per key (Figure 2);
- **barrier-less**: feed records to the reducer one at a time in arrival
  order, with partial results in the configured store (Figure 3).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.job import JobSpec, split_input
from repro.core.types import (
    Counters,
    ExecutionMode,
    JobResult,
    Key,
    Record,
    StageTimes,
    Value,
)
from repro.engine.base import (
    Engine,
    Stopwatch,
    barrier_merge_sort,
    finish_result,
    interleave_arrival,
    reducer_is_store_backed,
    run_map_task_partitioned,
    run_reduce_task,
)
from repro.dfs.wire import (
    WireConfig,
    account_batches,
    decode_batches,
    encode_record_batches,
)
from repro.engine.faults import (
    DEFAULT_MAX_ATTEMPTS,
    FaultInjector,
    RetryingTaskRunner,
)
from repro.obs import JobObservability


class LocalEngine(Engine):
    """Sequential in-process execution of a MapReduce job.

    ``heap_sample_hook`` (if given) receives ``(reducer_index, used_bytes)``
    for every partial-result store mutation — the raw feed for heap traces.
    ``fault_injector`` crashes selected task attempts, which the engine
    retries up to ``max_attempts`` times (Hadoop-style task attempts); the
    paper's fault-tolerance claim is that both execution modes survive
    this identically.
    """

    def __init__(
        self,
        heap_sample_hook: Callable[[int, int], None] | None = None,
        fault_injector: FaultInjector | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        obs: JobObservability | None = None,
        wire: WireConfig | None = None,
    ) -> None:
        self._heap_sample_hook = heap_sample_hook
        self._fault_injector = fault_injector
        self._max_attempts = max_attempts
        self.obs = obs if obs is not None else JobObservability()
        wire = wire if wire is not None else WireConfig()
        self._wire = wire if wire.enabled else None
        #: Retry bookkeeping of the most recent run() (attempts per task).
        self.last_run_attempts: dict[str, int] = {}

    def run(
        self,
        job: JobSpec,
        pairs: Sequence[tuple[Key, Value]],
        num_maps: int = 4,
    ) -> JobResult:
        job.validate()
        counters = Counters()
        watch = Stopwatch()
        times = StageTimes()
        obs = self.obs
        runner = RetryingTaskRunner(
            injector=self._fault_injector,
            max_attempts=self._max_attempts,
            obs=obs,
        )
        store_backed = reducer_is_store_backed(job)

        with obs.tracer.span(
            job.name, "job", mode=job.mode.value, engine="local"
        ) as job_span:
            # Map stage: one task per split, sequentially, with retry.
            splits = split_input(pairs, num_maps)
            per_reducer_outputs: dict[int, list[list[Record]]] = {
                i: [] for i in range(job.num_reducers)
            }
            times.map_start = watch.elapsed()
            first_done: float | None = None
            with obs.tracer.span("map", "stage", parent=job_span):
                for task_index, split in enumerate(splits):

                    def map_attempt(split=split):
                        attempt_counters = Counters()
                        produced = run_map_task_partitioned(
                            job, split, attempt_counters, wire=self._wire
                        )
                        return produced, attempt_counters

                    obs.events.emit(
                        "task.start", task=f"map-{task_index}", stage="map"
                    )
                    with obs.tracer.span(
                        f"map-{task_index}", "task"
                    ) as task_span:
                        partitions, task_counters = runner.run(
                            f"map-{task_index}", map_attempt, parent=task_span
                        )
                    obs.events.emit(
                        "task.finish",
                        task=f"map-{task_index}",
                        stage="map",
                        status="ok",
                    )
                    spills = task_counters.values.get("map.output_spills", 0)
                    if spills:
                        obs.events.emit(
                            "spill",
                            task=f"map-{task_index}",
                            spills=spills,
                            bytes=task_counters.values.get("map.spill_bytes", 0),
                        )
                    counters.merge(task_counters)
                    obs.counters.merge_counters(task_counters)
                    if self._wire is not None:
                        # Round-trip every partition through the wire
                        # codec — the sequential stand-in for a publish/
                        # fetch pair, with identical byte accounting to
                        # the concurrent engines (the oracle proves the
                        # codec is lossless on every app's key space).
                        encoded = {
                            index: encode_record_batches(part, self._wire)
                            for index, part in partitions.items()
                        }
                        account_batches(
                            obs.counters,
                            [b for bs in encoded.values() for b in bs],
                        )
                        partitions = {
                            index: decode_batches(bs, self._wire)
                            for index, bs in encoded.items()
                        }
                    for index, part in partitions.items():
                        per_reducer_outputs[index].append(part)
                    counters.increment("map.tasks")
                    obs.counters.increment("map.tasks")
                    if first_done is None:
                        first_done = watch.elapsed()
            times.first_map_done = (
                first_done if first_done is not None else watch.elapsed()
            )
            times.last_map_done = watch.elapsed()

            # Shuffle + reduce per partition.
            output: dict[int, list[Record]] = {}
            with obs.tracer.span("reduce", "stage", parent=job_span):
                for reducer_index in range(job.num_reducers):
                    map_outputs = per_reducer_outputs[reducer_index]
                    if job.mode is ExecutionMode.BARRIER:
                        stream = barrier_merge_sort(map_outputs)
                    else:
                        stream = interleave_arrival(map_outputs)
                    counters.increment("shuffle.records", len(stream))
                    obs.counters.increment("shuffle.records", len(stream))
                    # Fetch accounting mirrors the threaded engine's
                    # ledger: sequentially, every record is fetched once
                    # and consumed once (nothing to dedup).
                    obs.counters.increment("shuffle.records.fetched", len(stream))
                    obs.counters.increment("shuffle.records.consumed", len(stream))
                    hook = self._heap_sample_hook
                    on_sample = (
                        (lambda used, _i=reducer_index: hook(_i, used))
                        if hook is not None
                        else None
                    )

                    def reduce_attempt(stream=stream, on_sample=on_sample):
                        attempt_counters = Counters()
                        produced = run_reduce_task(
                            job, stream, attempt_counters, on_sample=on_sample
                        )
                        return produced, attempt_counters

                    task_id = f"reduce-{reducer_index}"
                    obs.events.emit("task.start", task=task_id, stage="reduce")
                    with obs.tracer.span(task_id, "task") as task_span:
                        produced, task_counters = runner.run(
                            task_id, reduce_attempt, parent=task_span
                        )
                    obs.events.emit(
                        "task.finish", task=task_id, stage="reduce", status="ok"
                    )
                    counters.merge(task_counters)
                    obs.counters.merge_counters(task_counters)
                    retries = runner.attempts_made.get(task_id, 1) - 1
                    if retries > 0:
                        obs.events.emit(
                            "reduce.restart", task=task_id, restarts=retries
                        )
                        obs.counters.increment("reduce.restarts", retries)
                        if store_backed:
                            # Each retried attempt rebuilt the partial
                            # store from scratch — the barrier-less
                            # recovery path.
                            obs.counters.increment("store.resets", retries)
                    output[reducer_index] = produced
                    counters.increment("reduce.tasks")
                    obs.counters.increment("reduce.tasks")
        times.shuffle_done = times.last_map_done
        times.sort_done = times.shuffle_done
        times.reduce_done = watch.elapsed()
        times.job_done = watch.elapsed()
        self.last_run_attempts = dict(runner.attempts_made)
        return finish_result(job, output, counters, times)
