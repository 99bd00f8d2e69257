"""Shared machinery for the local execution engines.

An *engine* executes a :class:`~repro.core.job.JobSpec` over in-memory
input and returns a :class:`~repro.core.types.JobResult`.  These engines
share this module's helpers:

- :class:`repro.engine.local.LocalEngine` — deterministic, single-threaded
  reference implementation (the semantics oracle for tests);
- :class:`repro.engine.threaded.ThreadedEngine` — per-mapper fetch threads
  and a pipelined reduce thread, structurally faithful to §3.1;
- :class:`repro.cluster.ClusterEngine` — tasks in forked worker
  processes, shuffled over sockets.

The helpers implement the stages every engine needs: running one map task
(with optional combiner), partitioning its output, the barrier merge-sort,
and wiring partial-result stores into barrier-less reducers.
"""

from __future__ import annotations

import abc
from itertools import islice
from typing import Callable, Iterable, Sequence

from repro.core.api import (
    BatchReduceContext,
    MapContext,
    Mapper,
    ReduceContext,
    Reducer,
    group_by_key,
    group_sorted_records,
)
from repro.core.job import JobSpec
from repro.core.types import (
    Counters,
    ExecutionMode,
    JobResult,
    Key,
    Record,
    ReduceClass,
    StageTimes,
    Value,
)
from repro.dfs.wire import WireBatch, WireConfig
from repro.engine.fold import fold_batches
from repro.engine.mapside import MapOutputCollector
from repro.memory import WriteBackStore, innermost_store, make_store

#: Slice size when a flat record stream stands in for wire batches: the
#: wire format's own default, so the deterministic engines fold (and
#: write back) at the granularity the concurrent ones see.
BATCH_RECORDS = WireConfig.max_batch_records


def run_map_task(
    job: JobSpec,
    split: Sequence[tuple[Key, Value]],
    counters: Counters,
) -> list[Record]:
    """Execute one map task over one input split; returns emitted records.

    Applies the job's combiner (if any) to the task's buffered output, the
    way Hadoop combines per map output before the shuffle.
    """
    mapper: Mapper = job.mapper_factory()
    context = MapContext(counters)
    mapper.setup(context)
    for key, value in split:
        mapper.map(key, value, context)
        counters.increment("map.input_records")
    mapper.cleanup(context)
    records = context.drain()
    if job.combiner_factory is not None:
        records = apply_combiner(job, records, counters)
    return records


def apply_combiner(
    job: JobSpec, records: list[Record], counters: Counters
) -> list[Record]:
    """Group a map task's buffered output by key and run the combiner."""
    combiner = job.combiner_factory()  # type: ignore[misc]
    combined: list[Record] = []
    for key, values in group_by_key(records):
        for value in combiner.combine(key, values):
            combined.append(Record(key, value))
    counters.increment("combine.input_records", len(records))
    counters.increment("combine.output_records", len(combined))
    return combined


def _add(counters: Counters, name: str, amount: int) -> None:
    """Increment by a task total, leaving a never-counted name absent."""
    if amount:
        counters.increment(name, amount)


def _run_mapper(
    job: JobSpec,
    split: Sequence[tuple[Key, Value]],
    counters: Counters,
    sink: Callable[[Key, Value], None],
) -> None:
    """Run the job's mapper over ``split``, emitting straight into ``sink``.

    The caller adds ``map.output_records``, from what the sink received.
    """
    mapper: Mapper = job.mapper_factory()
    context = MapContext(counters, sink=sink)
    mapper.setup(context)
    for key, value in split:
        mapper.map(key, value, context)
    mapper.cleanup(context)
    _add(counters, "map.input_records", len(split))


def run_map_task_encoded(
    job: JobSpec,
    split: Sequence[tuple[Key, Value]],
    counters: Counters,
    wire: WireConfig | None = None,
) -> dict[int, list[WireBatch]]:
    """Execute one map task, returning each reducer's sealed batch stream.

    The one map side of every engine (local, threaded, cluster,
    streaming): ``emit`` feeds a
    :class:`~repro.engine.mapside.MapOutputCollector`, which partitions,
    encodes and cuts frames record by record.  Frames and counters equal
    ``encode_record_batches`` over ``partition_records(run_map_task(...))``
    — the codec-free composition it is tested against.
    """
    collector = MapOutputCollector(job.num_reducers, job.partition_fn, wire)
    if job.combiner_factory is not None:
        for key, value in run_map_task(job, split, counters):
            collector.collect(key, value)
        return collector.finish()
    _run_mapper(job, split, counters, collector.collect)
    batches = collector.finish()
    _add(
        counters,
        "map.output_records",
        sum(len(batch) for stream in batches.values() for batch in stream),
    )
    return batches


def partition_records(
    job: JobSpec, records: Iterable[Record]
) -> dict[int, list[Record]]:
    """Route records to reduce partitions with the job's partitioner."""
    partitions: dict[int, list[Record]] = {i: [] for i in range(job.num_reducers)}
    for record in records:
        index = job.partition_fn(record.key, job.num_reducers)
        partitions[index].append(record)
    return partitions


def barrier_merge_sort(map_outputs: Sequence[list[Record]]) -> list[Record]:
    """The barrier path: buffer all map output, then sort by key.

    Hadoop merge-sorts the per-mapper buffers; a stable sort over the
    concatenation is equivalent for grouping purposes and preserves
    per-mapper arrival order within a key.
    """
    merged: list[Record] = []
    for output in map_outputs:
        merged.extend(output)
    merged.sort(key=lambda record: record.key)
    return merged


def interleave_arrival(map_outputs: Sequence[list[Record]]) -> list[Record]:
    """Barrier-less arrival order for deterministic engines.

    Models records arriving as the shuffle pulls them from finished mappers:
    output is taken mapper-by-mapper in completion order.  Real engines
    (threaded) produce a genuinely concurrent interleaving; this ordering is
    the deterministic stand-in used by the reference engine, and application
    correctness must not depend on which one it gets (the paper's
    idempotence argument, §3.2).
    """
    stream: list[Record] = []
    for output in map_outputs:
        stream.extend(output)
    return stream


#: Reduce classes whose barrier-less input is grouped per batch: their
#: fold is per key and their result does not depend on how a key's
#: values are split into ``reduce`` calls.  Identity, Cross-key and
#: Single-reducer write in arrival order.  Sorting is left out because
#: grouping would buy nothing: its keys are almost all distinct (19,791
#: among the 20,000 records of stagebench's ``sort_spill``).
GROUPED_CLASSES = frozenset(
    {ReduceClass.AGGREGATION, ReduceClass.SELECTION, ReduceClass.POST_REDUCTION}
)


def make_reduce_context(
    job: JobSpec,
    reducer: Reducer,
    records: Iterable,
    counters: Counters,
    on_record: Callable[[], None] | None = None,
) -> ReduceContext:
    """Build ``reducer``'s reduce-side context for the job's execution mode.

    In barrier mode ``records`` is the key-sorted record stream, and a
    job with ``value_sort_key`` gets each key group's values delivered in
    that order — the framework-level secondary sort Selection operations
    rely on (§4.4).  In barrier-less mode ``records`` is an iterable of
    record *batches* in arrival order (a
    :func:`~repro.engine.fold.fold_batches` generator) and ``on_record``
    is the per-record fault-injection hook.

    Barrier-less input is grouped per batch (one step per distinct key
    of a batch) exactly when the job declares a :data:`GROUPED_CLASSES`
    class, ``reducer`` is store-backed and ``checkpointable`` — its store
    is its whole state, so it writes only in the final sweep — and no
    ``on_record`` hook is installed.  Everything else gets one record a
    step.
    """
    if job.mode is not ExecutionMode.BARRIER:
        grouped = (
            on_record is None
            and job.reduce_class in GROUPED_CLASSES
            and _store_is_whole_state(reducer)
        )
        return BatchReduceContext(records, counters, on_record, grouped)
    grouped = group_sorted_records(records)
    if job.value_sort_key is not None:
        sort_key = job.value_sort_key
        grouped = (
            (key, sorted(values, key=sort_key)) for key, values in grouped
        )
    return ReduceContext(grouped, counters)


def prepare_reducer(job: JobSpec, on_sample=None) -> Reducer:
    """Instantiate the reducer, attaching a partial-result store if needed.

    A reducer that exposes ``attach_store`` (i.e. derives from
    :class:`~repro.core.patterns.BarrierlessReducer`) receives a store built
    from the job's :class:`~repro.core.job.MemoryConfig` — or from
    ``job.store_factory`` when the application supplies its own.  In
    barrier-less mode a batch-scoped
    :class:`~repro.memory.writeback.WriteBackStore` goes in front of it;
    whoever feeds the reducer must call :func:`store_flush`'s callable at
    every batch boundary, and whoever called this must
    :func:`close_store` when the task is over.
    """
    reducer = job.reducer_factory()
    attach = getattr(reducer, "attach_store", None)
    if attach is not None:
        if job.store_factory is not None:
            store = job.store_factory()
        else:
            store = make_store(job.memory, merge_fn=job.merge_fn, on_sample=on_sample)
        if job.mode is not ExecutionMode.BARRIER:
            store = WriteBackStore(store)
        attach(store)
    return reducer


def store_flush(reducer: Reducer) -> Callable[[], None]:
    """The reducer's write-back flush (a no-op when it has none)."""
    return getattr(getattr(reducer, "_store", None), "flush", lambda: None)


def close_store(reducer: Reducer | None) -> None:
    """Release the reducer's store: spill files, log handle, directory.

    "Close if it has one": the in-memory store has nothing to release,
    and a ``store_factory`` proxy need not forward ``close``, so the
    concrete store is asked directly.
    """
    close = getattr(
        innermost_store(getattr(reducer, "_store", None)), "close", None
    )
    if close is not None:
        close()


def harvest_store_counters(reducer: Reducer, counters: Counters) -> None:
    """Fold a reducer's partial-result-store statistics into counters.

    Store-backed reducers expose their store after :func:`prepare_reducer`;
    the concrete technique determines which statistics exist (KV-store
    cache hits/misses, spill-merge spill counts), so every lookup is
    feature-probed.  Reducers without a store are a no-op.
    """
    store = getattr(reducer, "_store", None)
    if store is None:
        return
    counters.increment("store.builds")
    inner = innermost_store(store)
    hits = getattr(inner, "cache_hits", None)
    if isinstance(hits, int):
        counters.increment("store.cache_hits", hits)
        counters.increment("store.cache_misses", inner.cache_misses)
    spills = getattr(inner, "spill_count", None)
    if isinstance(spills, int):
        counters.increment("store.spills", spills)
        counters.increment(
            "store.spilled_entries", getattr(inner, "spilled_entries", 0)
        )
    # memory.* namespace: substrate-level statistics (spill file churn,
    # cache effectiveness).
    files = getattr(inner, "num_spill_files", None)
    if isinstance(files, int):
        counters.increment("memory.spill.files", files)
        counters.increment(
            "memory.spill.bytes", getattr(inner, "spill_bytes_written", 0)
        )
    if isinstance(hits, int):
        counters.increment("memory.kvstore.cache_hits", hits)
        counters.increment("memory.kvstore.cache_misses", inner.cache_misses)
        counters.increment(
            "memory.kvstore.log_bytes", getattr(inner, "bytes_written", 0)
        )


def reducer_is_checkpointable(job: JobSpec) -> bool:
    """Whether this job's reducers can soundly checkpoint/resume.

    True only when the reducer gets a partial-result store attached and
    declares it to be its *complete* state (``checkpointable`` on
    :class:`~repro.core.patterns.BarrierlessReducer`): reducers that emit
    output during folding (identity, cross-key windows) or keep state
    outside the store would silently lose work if resumed from a store
    snapshot, so they refold instead.  Builds one throw-away reducer.
    """
    return _store_is_whole_state(job.reducer_factory())


def _store_is_whole_state(reducer: Reducer) -> bool:
    """Store-backed, and the store is all the state (``checkpointable``)."""
    return getattr(reducer, "attach_store", None) is not None and bool(
        getattr(reducer, "checkpointable", False)
    )


def reducer_is_store_backed(job: JobSpec) -> bool:
    """Whether this job's reducers get a partial-result store attached.

    Engines use this to surface store rebuilds on task retry as a
    ``store.resets`` counter (the barrier-less recovery path the paper's
    §8 claim rests on).
    """
    return getattr(job.reducer_factory(), "attach_store", None) is not None


def run_reduce_task(
    job: JobSpec,
    records: Iterable[Record],
    counters: Counters,
    on_sample=None,
) -> list[Record]:
    """Execute one reduce task over its partition's (flat) record stream.

    Barrier-less, the stream is cut into fixed :data:`BATCH_RECORDS`
    slices (fixed keeps ``LocalEngine`` deterministic) and the store
    write-back is flushed at each slice boundary — the same boundary the
    pipelined engines get from the wire, with nothing else owed at it.
    """
    reducer = prepare_reducer(job, on_sample=on_sample)
    try:
        if job.mode is not ExecutionMode.BARRIER:
            stream = iter(records)
            flush = store_flush(reducer)
            slices = iter(lambda: list(islice(stream, BATCH_RECORDS)), [])
            records = fold_batches(
                ((batch,) for batch in slices), lambda _batch: flush()
            )
        context = make_reduce_context(job, reducer, records, counters)
        reducer.run(context)
        harvest_store_counters(reducer, counters)
        return context.drain()
    finally:
        close_store(reducer)


class Engine(abc.ABC):
    """Interface all local engines implement."""

    @abc.abstractmethod
    def run(
        self,
        job: JobSpec,
        pairs: Sequence[tuple[Key, Value]],
        num_maps: int = 4,
    ) -> JobResult:
        """Execute ``job`` over ``pairs`` split across ``num_maps`` tasks."""


def finish_result(
    job: JobSpec,
    output: dict[int, list[Record]],
    counters: Counters,
    stage_times: StageTimes,
) -> JobResult:
    """Assemble the JobResult (shared tail of every engine).

    ``output`` is copied into a new dict in reducer order: engines fill
    theirs as reducers commit, and the cluster's is dispatcher state the
    journal replays, which a caller must not be able to mutate.
    """
    return JobResult(
        output={reducer: output[reducer] for reducer in sorted(output)},
        counters=counters,
        stage_times=stage_times,
        mode=job.mode,
    )
