"""Shared runtime services: the reduce-attempt executor behind engines.

The threaded engine and the networked cluster runtime execute the same
reduce task — fetch a partition from per-mapper sequenced batch streams,
optionally sort (barrier) or fold batch-by-batch (barrier-less), with
retry/backoff/dedup/checkpoint semantics from :mod:`repro.engine.recovery`
— but against different transports: in-process queues versus TCP sockets.
This module is the transport-agnostic middle layer extracted from
:class:`~repro.engine.threaded.ThreadedEngine`:

- :func:`run_barrier_reduce_attempt` / :func:`run_pipelined_reduce_attempt`
  execute one reduce-task attempt against any *map-output source* — an
  object exposing the :class:`~repro.engine.recovery.MapOutputService`
  read protocol (``wait_available`` / ``read`` / ``epoch_of``).  The
  threaded engine passes the in-memory service; the cluster worker passes
  a socket-backed remote source.
- :class:`FlowController` — size-based backpressure on in-flight decoded
  batches.
- :func:`checkpoint_gate` — the one place that decides whether a job's
  reducers checkpoint, returning the per-reducer
  :class:`~repro.engine.fold.ReduceTaskRecovery` constructor.
- :class:`GaugeSet` / :class:`RunInstruments` — the sampled-gauge plumbing
  every host registers so ``shuffle.buffer.depth``, ``store.bytes``,
  ``shuffle.fetch.inflight`` and friends appear under one schema.

This module keeps what needs threads: fetch workers, the shared FIFO
queue, flow control and gauges.  What a barrier-less reducer owes at a
batch boundary — write-back flush, record classification, checkpoint
and preempt cuts — is :mod:`repro.engine.fold`'s, which has none.  An
attempt's phases are the op spans it opens under its task span:
``shuffle`` / ``sort`` / ``reduce`` (barrier) or ``shuffle+reduce`` /
``output`` (barrier-less).
"""

from __future__ import annotations

import queue
import threading
import time
from functools import partial
from typing import Callable

from repro.core.job import JobSpec
from repro.core.types import Counters, ExecutionMode, Record
from repro.dfs.wire import (
    WireBatch,
    WireConfig,
    compression_ratio,
    decode_batch,
    entry_pair,
)
from repro.engine.base import (
    close_store,
    harvest_store_counters,
    make_reduce_context,
    prepare_reducer,
    reducer_is_checkpointable,
)
from repro.engine.fold import (
    ReducePreemptedError,
    ReduceTaskRecovery,
    fold_batches,
)
from repro.engine.recovery import (
    FetchFaultInjector,
    FetchLedger,
    RecoveryConfig,
    reduce_record_hook,
    run_fetch_stream,
)
from repro.obs import JobObservability, LiveGauge

__all__ = [
    "ATTEMPT_STRIDE",
    "SENTINEL",
    "FlowController",
    "GaugeSet",
    "RunInstruments",
    "checkpoint_gate",
    "crash_checked",
    "open_batch",
    "run_barrier_reduce_attempt",
    "run_pipelined_reduce_attempt",
]

SENTINEL = None

#: Attempt-number spacing between reduce-task attempts, so every task
#: attempt draws independent fetch-fault decisions from the injector's stable hash.  Must exceed any plausible
#: ``max_fetch_attempts`` budget.
ATTEMPT_STRIDE = 100


class GaugeSet:
    """Sum of per-attempt contribution callables, read by the ticker.

    Reduce attempts come and go (restarts, preemptions); each
    registers a zero-argument contribution for its lifetime and the
    registered engine gauge reads the sum of whatever is live right now.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fns: dict[int, "callable"] = {}
        self._next_token = 0

    def add(self, fn) -> int:
        """Register one contribution; returns a token for :meth:`remove`."""
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._fns[token] = fn
        return token

    def remove(self, token: int) -> None:
        with self._lock:
            self._fns.pop(token, None)

    def total(self) -> float:
        """Current sum of live contributions (a failing one reads as 0)."""
        with self._lock:
            fns = list(self._fns.values())
        total = 0.0
        for fn in fns:
            try:
                total += fn()
            except Exception:
                continue
        return total


class RunInstruments:
    """Per-run gauge plumbing behind the engine's sampled time-series.

    Owns the in-flight fetch gauge and the buffer-depth / store-bytes
    gauge sets that concurrent reduce attempts contribute to; registered
    once per run so `shuffle.fetch.inflight`, `shuffle.buffer.depth`,
    `store.bytes` and `reduce.records_per_s` appear under one schema for
    every engine and the simulator.
    """

    __slots__ = ("inflight", "buffer_depth", "store_bytes")

    def __init__(self) -> None:
        self.inflight = LiveGauge()
        self.buffer_depth = GaugeSet()
        self.store_bytes = GaugeSet()

    def register(self, obs: JobObservability) -> None:
        metrics = obs.metrics
        metrics.register_gauge(
            "shuffle.fetch.inflight", self.inflight.value, unit="streams"
        )
        metrics.register_gauge(
            "shuffle.buffer.depth", self.buffer_depth.total, unit="records"
        )
        metrics.register_gauge(
            "store.bytes", self.store_bytes.total, unit="bytes"
        )
        metrics.register_rate(
            "reduce.records_per_s",
            lambda: obs.counters.get("shuffle.records.consumed"),
            unit="records/s",
        )
        metrics.register_gauge(
            "shuffle.compress.ratio",
            lambda: compression_ratio(obs.counters),
            unit="ratio",
        )


#: Bytes of decoded batches a reduce attempt's fetch streams may have
#: waiting for the reduce thread before they block (the flow-control window).
MAX_INFLIGHT_BYTES = 1 << 20


class FlowController:
    """Size-based flow control for in-flight shuffle batches.

    Fetch threads :meth:`acquire` a batch's wire bytes before handing it
    to the reduce thread, and the bytes are :meth:`release`-d once the
    reduce thread has consumed the whole batch — so a slow reducer
    backpressures its fetchers at ``limit_bytes`` of in-flight data
    instead of buffering unboundedly.  ``acquire`` polls the cancellation
    event so a crashed reduce attempt never strands a blocked fetcher.
    """

    def __init__(self, limit_bytes: int):
        self._limit = limit_bytes
        self._used = 0
        self._cond = threading.Condition()

    def acquire(
        self, nbytes: int, cancelled: threading.Event | None = None
    ) -> None:
        # A single batch larger than the window must still pass, or the
        # stream deadlocks on its first frame.
        nbytes = min(nbytes, self._limit)
        with self._cond:
            while self._used + nbytes > self._limit:
                if cancelled is not None and cancelled.is_set():
                    return
                self._cond.wait(timeout=0.01)
            self._used += nbytes

    def release(self, nbytes: int) -> None:
        with self._cond:
            self._used = max(0, self._used - min(nbytes, self._limit))
            self._cond.notify_all()


def checkpoint_gate(
    job: JobSpec, config: RecoveryConfig, root: str | None
) -> Callable[[int], ReduceTaskRecovery]:
    """Decide once whether ``job``'s reducers checkpoint under ``root``.

    Checkpointing applies only where the store IS the reducer's complete
    state: barrier-less mode, a store-backed reducer whose class opted in
    (``checkpointable``), an enabled policy, and a directory to write to.
    Returns the per-reducer constructor, ``make(reducer_index)``; the
    reducer is probed here, not per task.
    """
    if (
        root is not None
        and config.checkpoint_enabled
        and job.mode is ExecutionMode.BARRIERLESS
        and reducer_is_checkpointable(job)
    ):
        return partial(ReduceTaskRecovery, config.checkpoint, root)
    return partial(ReduceTaskRecovery, None, None)


def open_batch(
    batch: WireBatch, wire: WireConfig, make: Callable = Record
) -> tuple[list, int]:
    """Decode one delivered batch into ``(records, wire_bytes)``.

    Fetch streams deliver sealed :class:`~repro.dfs.wire.WireBatch`
    frames and the decode happens here, on the fetch thread — the
    reducer-side half of the codec.  The barrier sorts :class:`Record`
    objects; the barrier-less fold takes ``make=entry_pair`` tuples.
    """
    return decode_batch(batch, wire, make), batch.wire_bytes


def crash_checked(records, reducer_index: int, injector):
    """Wrap a barrier reduce input with injected crash checks."""
    if injector is None:
        return records

    def checked():
        consumed = 0
        for record in records:
            injector.check_reduce(reducer_index, consumed)
            consumed += 1
            yield record

    return checked()


def run_barrier_reduce_attempt(
    job: JobSpec,
    service,
    reducer_index: int,
    num_maps: int,
    task_span,
    attempt_base: int,
    *,
    obs: JobObservability,
    config: RecoveryConfig,
    injector: FetchFaultInjector | None = None,
    wire: WireConfig | None = None,
    inst: RunInstruments | None = None,
    stop: "threading.Event | None" = None,
) -> tuple[list[Record], Counters]:
    """One fetch thread per mapper into per-mapper buffers; barrier.

    ``service`` is any map-output source speaking the
    :class:`~repro.engine.recovery.MapOutputService` read protocol.  A
    mapper epoch change (re-execution) simply clears that mapper's
    buffer and re-fetches it — nothing was consumed yet, which is the
    cheap half of the recovery asymmetry the barrier buys.

    ``stop`` (preemption) is honoured at the barrier: a barrier
    reducer holds no partial store worth snapshotting, so a preempted
    attempt just drops its buffers — the held map outputs make the
    eventual re-fetch cheap, which is all the barrier mode can offer.
    """
    wire = wire if wire is not None else WireConfig()
    tracer = obs.tracer if task_span is not None else None
    buffers: list[list[Record]] = [[] for _ in range(num_maps)]
    # Buffered batches are not consumed until the sort buffer is
    # final: an epoch change can still discard them.
    ledger = FetchLedger(obs.counters, consume_on_admit=False)
    shuffle_span = None
    if tracer is not None:
        shuffle_span = tracer.open("shuffle", "op", parent=task_span)
    fetch_errors: list[BaseException] = []

    def buffered_depth() -> int:
        return sum(len(buffer) for buffer in buffers)

    depth_token = (
        inst.buffer_depth.add(buffered_depth) if inst is not None else None
    )
    store_token = None
    reducer = None

    def on_epoch_change(mapper: int) -> None:
        ledger.reset(mapper, len(buffers[mapper]))
        buffers[mapper].clear()

    def make_deliver(mapper: int):
        buffer = buffers[mapper]

        def deliver(batch, _mapper, _seq, _epoch) -> None:
            records, _nbytes = open_batch(batch, wire)
            buffer.extend(records)
            obs.metrics.observe_max("shuffle.buffer.hwm", buffered_depth())

        return deliver

    def fetch_worker(mapper: int) -> None:
        if inst is not None:
            inst.inflight.add(1)
        try:
            run_fetch_stream(
                service,
                mapper,
                reducer_index,
                ledger,
                make_deliver(mapper),
                config=config,
                injector=injector,
                counters=obs.counters,
                tracer=tracer,
                parent=task_span,
                attempt_base=attempt_base,
                on_epoch_change=on_epoch_change,
            )
        except BaseException as exc:
            fetch_errors.append(exc)
        finally:
            if inst is not None:
                inst.inflight.add(-1)

    try:
        threads = [
            threading.Thread(
                target=fetch_worker, args=(m,),
                name=f"fetch-{reducer_index}-{m}",
            )
            for m in range(num_maps)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()  # <-- the distributed barrier
        if shuffle_span is not None:
            tracer.close(shuffle_span)
        if fetch_errors:
            raise fetch_errors[0]
        if stop is not None and stop.is_set():
            raise ReducePreemptedError(reducer_index, 0)

        records: list[Record] = []
        for buffer in buffers:
            records.extend(buffer)
        ledger.seal(len(records))

        if tracer is not None:
            with tracer.span("sort", "op", parent=task_span):
                records.sort(key=lambda record: record.key)
        else:
            records.sort(key=lambda record: record.key)

        local_counters = Counters()
        local_counters.increment("shuffle.records", len(records))
        reducer = prepare_reducer(job)
        store = getattr(reducer, "_store", None)
        if inst is not None and store is not None:
            store_token = inst.store_bytes.add(store.memory_used)
        stream = crash_checked(records, reducer_index, injector)

        def run_reduce():
            context = make_reduce_context(job, reducer, stream, local_counters)
            reducer.run(context)
            return context.drain()

        if tracer is not None:
            with tracer.span("reduce", "op", parent=task_span):
                produced = run_reduce()
        else:
            produced = run_reduce()
        harvest_store_counters(reducer, local_counters)
        return produced, local_counters
    finally:
        if inst is not None:
            if depth_token is not None:
                inst.buffer_depth.remove(depth_token)
            if store_token is not None:
                inst.store_bytes.remove(store_token)
        close_store(reducer)


def run_pipelined_reduce_attempt(
    job: JobSpec,
    service,
    reducer_index: int,
    num_maps: int,
    task_span,
    attempt_base: int,
    *,
    obs: JobObservability,
    config: RecoveryConfig,
    injector: FetchFaultInjector | None = None,
    wire: WireConfig | None = None,
    inst: RunInstruments | None = None,
    recovery: ReduceTaskRecovery | None = None,
    stop: "threading.Event | None" = None,
) -> tuple[list[Record], Counters]:
    """Fetch threads into one shared buffer + FIFO reduce, pipelined.

    Records are consumed the moment they are admitted, so a mapper
    epoch change cannot take them back — the ledger instead discards
    the re-fetched duplicates by sequence number (the expensive half
    of the recovery asymmetry: barrier-less re-fetch must dedup).

    The fold itself is :mod:`repro.engine.fold`'s: ``recovery`` (one per
    reducer, shared by its attempts; ``None`` means a throw-away one)
    decides at :meth:`~ReduceTaskRecovery.begin` whether
    a snapshot is restored — valid only while every source mapper's
    epoch still matches the service — and each fetch stream then starts
    at its persisted sequence number, so only the un-consumed tail is
    replayed; anything else refolds from zero.

    ``stop`` makes the attempt *preemptible*: once the event is set,
    the next wire-batch boundary cuts a forced checkpoint and the
    attempt unwinds with :class:`~repro.engine.fold.ReducePreemptedError`
    — everything folded so far is on disk, so a later attempt restores
    it and replays only the tail.  Batch boundaries are the only stop
    points: the store is consistent there, exactly as for a periodic
    snapshot.
    """
    wire = wire if wire is not None else WireConfig()
    tracer = obs.tracer if task_span is not None else None
    shared: "queue.Queue" = queue.Queue()
    cancelled = threading.Event()
    ledger = FetchLedger(obs.counters, consume_on_admit=True)
    fetch_errors: list[BaseException] = []
    # The FIFO buffer's occupancy in records: delivered batches add,
    # each batch the reduce thread has finished folding subtracts.
    depth = LiveGauge()
    depth_token = (
        inst.buffer_depth.add(depth.value) if inst is not None else None
    )
    store_token = None

    # Size-based flow control: fetch threads block once the decoded
    # batches waiting in the shared buffer exceed MAX_INFLIGHT_BYTES.
    flow = FlowController(MAX_INFLIGHT_BYTES)

    local_counters = Counters()
    reducer = prepare_reducer(job)
    threads: list[threading.Thread] = []
    phase = None
    try:
        store = getattr(reducer, "_store", None)
        if inst is not None and store is not None:
            store_token = inst.store_bytes.add(store.memory_used)
        if recovery is None:
            recovery = ReduceTaskRecovery(index=reducer_index)
        cursors = recovery.begin(
            store,
            lambda mapper, epoch, _records: service.epoch_of(mapper) == epoch,
            obs,
            time.monotonic(),
            task_span,
        )
        for mapper, (seq, _epoch) in cursors.items():
            ledger.seed(mapper, seq)

        def deliver(batch, mapper: int, seq: int, epoch: int) -> None:
            records, nbytes = open_batch(batch, wire, entry_pair)
            flow.acquire(nbytes, cancelled)
            depth.add(len(records))
            shared.put((records, nbytes, mapper, seq, epoch))
            obs.metrics.observe_max("shuffle.buffer.hwm", depth.value())

        def fetch_worker(mapper: int) -> None:
            if inst is not None:
                inst.inflight.add(1)
            start_seq, start_epoch = cursors.get(mapper, (0, None))
            try:
                run_fetch_stream(
                    service,
                    mapper,
                    reducer_index,
                    ledger,
                    deliver,
                    config=config,
                    injector=injector,
                    counters=obs.counters,
                    tracer=tracer,
                    parent=task_span,
                    cancelled=cancelled,
                    attempt_base=attempt_base,
                    start_seq=start_seq,
                    start_epoch=start_epoch,
                )
            except BaseException as exc:
                fetch_errors.append(exc)
            finally:
                if inst is not None:
                    inst.inflight.add(-1)
                shared.put(SENTINEL)

        def arrivals():
            # The "single buffer" of the barrier-less reducer, consumed
            # "in a first-in first-out manner" until every fetch thread
            # has sent its sentinel.
            nonlocal phase
            finished = 0
            while finished < num_maps:
                item = shared.get()
                if item is SENTINEL:
                    finished += 1
                else:
                    yield item
            if phase is not None:
                tracer.close(phase)
                phase = tracer.open("output", "op", parent=task_span)

        def batch_done(records, nbytes, mapper, seq, epoch) -> None:
            flow.release(nbytes)
            local_counters.increment("shuffle.records", len(records))
            depth.add(-len(records))
            recovery.folded(
                mapper, seq, epoch, len(records), nbytes, time.monotonic(),
                stop is not None and stop.is_set(),
            )

        for m in range(num_maps):
            thread = threading.Thread(
                target=fetch_worker, args=(m,),
                name=f"fetch-{reducer_index}-{m}",
            )
            thread.start()
            threads.append(thread)

        # The attempt's two phases, as the simulator records them:
        # ``shuffle+reduce`` until the fold has taken the last batch,
        # then ``output`` for the final sweep and the drain.
        if tracer is not None:
            phase = tracer.open("shuffle+reduce", "op", parent=task_span)
        context = make_reduce_context(
            job,
            reducer,
            fold_batches(arrivals(), batch_done),
            local_counters,
            reduce_record_hook(injector, reducer_index),
        )
        reducer.run(context)  # consumes batches as they arrive
        for thread in threads:
            thread.join()
        if fetch_errors:
            raise fetch_errors[0]
        recovery.finish(local_counters)
        harvest_store_counters(reducer, local_counters)
        return context.drain(), local_counters
    finally:
        if phase is not None:
            tracer.close(phase)
        # On a crash (e.g. an injected ReducerCrashError) or a preempt
        # this stops the fetch threads before a restart re-fetches
        # cleanly; after a clean run they have already exited.
        cancelled.set()
        for thread in threads:
            thread.join()
        if inst is not None:
            if depth_token is not None:
                inst.buffer_depth.remove(depth_token)
            if store_token is not None:
                inst.store_bytes.remove(store_token)
        close_store(reducer)
