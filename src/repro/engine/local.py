"""Deterministic single-threaded reference engine.

``LocalEngine`` is the semantics oracle: it executes jobs with no
concurrency, so its output is exactly reproducible, and every other engine
(threaded, streaming, cluster) is tested for output equivalence
against it.  Both shuffle modes are supported:

- **barrier**: buffer all map output per reducer, merge-sort it, invoke
  ``reduce(key, values)`` once per key (Figure 2);
- **barrier-less**: feed the reducer its input in arrival order, one
  record batch at a time (grouped per key where the job's Reduce class
  allows), with partial results in the configured store (Figure 3).

Each map task runs through ``run_map_task_encoded``, the collector every
engine maps with; its sealed frames are accounted like a publish and
decoded per reducer, the sequential stand-in for a publish/fetch pair.
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
    Value,
)
from repro.engine.base import (
    Engine,
    barrier_merge_sort,
    finish_result,
    interleave_arrival,
    reducer_is_store_backed,
    run_map_task_encoded,
    run_reduce_task,
)
from repro.dfs.wire import WireConfig, account_batches, decode_batches
from repro.engine.faults import (
    DEFAULT_MAX_ATTEMPTS,
    FaultInjector,
    RetryingTaskRunner,
)
from repro.obs import JobObservability, stage_times


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
        self._wire = wire if wire is not None else WireConfig()
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
        obs = self.obs
        runner = RetryingTaskRunner(
            injector=self._fault_injector,
            max_attempts=self._max_attempts,
            obs=obs,
        )

        with obs.tracer.span(
            job.name, "job", mode=job.mode.value, engine="local"
        ) as job_span:
            # Map stage: one task per split, sequentially, with retry.
            splits = split_input(pairs, num_maps)
            per_reducer_frames: dict[int, list[list]] = {
                i: [] for i in range(job.num_reducers)
            }
            with obs.tracer.span("map", "stage", parent=job_span):
                for task_index, split in enumerate(splits):

                    def map_attempt(split=split):
                        attempt_counters = Counters()
                        produced = run_map_task_encoded(
                            job, split, attempt_counters, self._wire
                        )
                        return produced, attempt_counters

                    with obs.tracer.span(
                        f"map-{task_index}", "task"
                    ) as task_span:
                        encoded, task_counters = runner.run(
                            f"map-{task_index}", map_attempt, parent=task_span
                        )
                    counters.merge(task_counters)
                    obs.counters.merge_counters(task_counters)
                    account_batches(
                        obs.counters,
                        [b for bs in encoded.values() for b in bs],
                    )
                    for index, batches in encoded.items():
                        per_reducer_frames[index].append(batches)
                    counters.increment("map.tasks")
                    obs.counters.increment("map.tasks")

            # Shuffle + reduce per partition.
            output: dict[int, list[Record]] = {}
            with obs.tracer.span("reduce", "stage", parent=job_span):
                for reducer_index in range(job.num_reducers):
                    hook = self._heap_sample_hook
                    on_sample = (
                        (lambda used, _i=reducer_index: hook(_i, used))
                        if hook is not None
                        else None
                    )
                    task_id = f"reduce-{reducer_index}"
                    with obs.tracer.span(task_id, "task") as task_span:
                        stream = self._fetch(
                            job, per_reducer_frames[reducer_index]
                        )
                        counters.increment("shuffle.records", len(stream))
                        obs.counters.increment("shuffle.records", len(stream))
                        # Fetch accounting mirrors the threaded engine's
                        # ledger: sequentially, every record is fetched
                        # once and consumed once (nothing to dedup).
                        obs.counters.increment("shuffle.records.fetched", len(stream))
                        obs.counters.increment("shuffle.records.consumed", len(stream))

                        def reduce_attempt(stream=stream, on_sample=on_sample):
                            attempt_counters = Counters()
                            produced = run_reduce_task(
                                job, stream, attempt_counters,
                                on_sample=on_sample,
                            )
                            return produced, attempt_counters

                        with obs.tracer.span("reduce", "op"):
                            produced, task_counters = runner.run(
                                task_id, reduce_attempt, parent=task_span
                            )
                    counters.merge(task_counters)
                    obs.counters.merge_counters(task_counters)
                    retries = runner.attempts_made.get(task_id, 1) - 1
                    if retries > 0:
                        obs.counters.increment("reduce.restarts", retries)
                        if reducer_is_store_backed(job):
                            # Each retried attempt rebuilt the partial
                            # store from scratch — the barrier-less
                            # recovery path.  Probed only now: a clean
                            # run never asks.
                            obs.counters.increment("store.resets", retries)
                    output[reducer_index] = produced
                    counters.increment("reduce.tasks")
                    obs.counters.increment("reduce.tasks")
        self.last_run_attempts = dict(runner.attempts_made)
        return finish_result(
            job, output, counters, stage_times(obs.tracer.job_spans(job_span))
        )

    def _fetch(self, job: JobSpec, frames: list[list]) -> list[Record]:
        """One reducer's input, as the op spans of its task: decode every
        map's frames (``shuffle``), then merge-sort them (``sort``,
        barrier) or keep them in arrival order (barrier-less)."""
        tracer = self.obs.tracer
        with tracer.span("shuffle", "op"):
            map_outputs = [
                decode_batches(batches, self._wire) for batches in frames
            ]
        if job.mode is ExecutionMode.BARRIERLESS:
            return interleave_arrival(map_outputs)
        with tracer.span("sort", "op"):
            return barrier_merge_sort(map_outputs)
