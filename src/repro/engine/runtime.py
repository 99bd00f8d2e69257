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
- :class:`RecordStream` — the barrier-less single FIFO buffer consumed by
  the reduce thread.
- :class:`ReduceTaskRecovery` — per-reducer recovery state carried across
  attempts (checkpoint policy + directory, prior-attempt fold progress).
- :class:`GaugeSet` / :class:`RunInstruments` — the sampled-gauge plumbing
  every host registers so ``shuffle.buffer.depth``, ``store.bytes``,
  ``shuffle.fetch.inflight`` and friends appear under one schema.

Everything here is a *mechanical* extraction: the semantics (and the
counter/event shapes) are exactly the threaded engine's, so the cluster
runtime inherits the recovery behaviour the in-process chaos suites pin.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.core.job import JobSpec
from repro.core.types import Counters, Record
from repro.dfs.wire import WireBatch, WireConfig, compression_ratio, decode_batch
from repro.engine.base import (
    Stopwatch,
    harvest_store_counters,
    innermost_store,
    make_reduce_context,
    prepare_reducer,
    store_flush,
)
from repro.engine.recovery import (
    FetchFaultInjector,
    FetchLedger,
    RecoveryConfig,
    reduce_record_hook,
    run_fetch_stream,
)
from repro.memory.checkpoint import (
    PREEMPT_META_KEY,
    CheckpointError,
    checkpoint_exists,
    discard_checkpoint,
    peek_checkpoint_meta,
)
from repro.obs import JobObservability, LiveGauge

__all__ = [
    "ATTEMPT_STRIDE",
    "SENTINEL",
    "FlowController",
    "GaugeSet",
    "RecordStream",
    "ReducePreemptedError",
    "ReduceTaskRecovery",
    "RunInstruments",
    "crash_checked",
    "open_batch",
    "run_barrier_reduce_attempt",
    "run_pipelined_reduce_attempt",
]

SENTINEL = None

#: Attempt-number spacing between reduce-attempt variants, so every task
#: attempt (and every speculative backup) draws independent fetch-fault
#: decisions from the injector's stable hash.  Must exceed any plausible
#: ``max_fetch_attempts`` budget.
ATTEMPT_STRIDE = 100


class ReducePreemptedError(BaseException):
    """A reduce attempt stopped cooperatively at a wire-batch boundary.

    Raised from inside the attempt when its ``stop`` event is set: the
    attempt cuts a final checkpoint (when checkpointing is active),
    winds down its fetch threads, and unwinds with this — *not* a task
    failure, which is why it derives from :class:`BaseException` like
    the injected crash errors: a reducer app catching ``Exception``
    must not swallow a preemption.  The cluster worker answers it with
    a ``reduce-preempted`` ack instead of ``task-failed``.
    """

    def __init__(self, reducer_index: int, records: int) -> None:
        super().__init__(
            f"reduce-{reducer_index} preempted at batch boundary "
            f"({records} records folded)"
        )
        self.reducer_index = reducer_index
        self.records = records


class GaugeSet:
    """Sum of per-attempt contribution callables, read by the ticker.

    Reduce attempts come and go (restarts, speculative backups); each
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

    def in_flight(self) -> int:
        with self._cond:
            return self._used


class ReduceTaskRecovery:
    """Per-reducer recovery state shared across that reducer's attempts.

    Tracks the furthest fold progress any failed attempt reached (per
    mapper), which the committing attempt uses to split re-done work
    (``reduce.replayed_records`` / ``reduce.refolded_records``) from live
    work — and, when checkpointing is enabled, carries the policy and the
    reducer's snapshot directory.  Speculative backup attempts never get
    one: a backup racing the primary must not share its snapshot file.
    """

    __slots__ = ("policy", "directory", "prior_records")

    def __init__(self, policy=None, directory: str | None = None) -> None:
        self.policy = policy
        self.directory = directory
        #: mapper -> cumulative records folded by the furthest prior
        #: (failed) attempt.  Batch-granular: a crash mid-batch loses at
        #: most one batch of progress accounting, never correctness.
        self.prior_records: dict[int, int] = {}

    @property
    def can_checkpoint(self) -> bool:
        return self.policy is not None and self.directory is not None

    def note_attempt_progress(self, folded: dict[int, int]) -> None:
        for mapper, count in folded.items():
            if count > self.prior_records.get(mapper, 0):
                self.prior_records[mapper] = count


class RecordStream:
    """Iterator over a FIFO queue fed by ``producers`` fetch threads.

    Yields whole decoded record batches until every producer has sent its
    sentinel; this is the "single buffer" of the barrier-less reducer
    with the reduce thread consuming "in a first-in first-out manner".
    Items are ``(records, wire_bytes, mapper, seq, epoch)`` tuples; once
    the consumer comes back for the next batch — i.e. after it has
    processed every record of this one — the batch's bytes are handed to
    ``on_batch_done`` (the flow-control release) and its provenance to
    ``on_batch_folded``.  Both callbacks run on the consuming thread at
    that batch boundary, so ``on_batch_folded`` is a consistent point to
    write the store back and snapshot it.
    """

    def __init__(
        self,
        buffer: "queue.Queue",
        producers: int,
        on_batch_done=None,
        on_batch_folded=None,
    ):
        self._buffer = buffer
        self._producers = producers
        self._on_batch_done = on_batch_done
        self._on_batch_folded = on_batch_folded

    def __iter__(self):
        finished = 0
        while finished < self._producers:
            item = self._buffer.get()
            if item is SENTINEL:
                finished += 1
                continue
            records, nbytes, mapper, seq, epoch = item
            yield records
            if self._on_batch_done is not None:
                self._on_batch_done(nbytes)
            if self._on_batch_folded is not None:
                self._on_batch_folded(mapper, seq, epoch, len(records), nbytes)


def open_batch(batch, wire: WireConfig | None) -> tuple[list[Record], int]:
    """Decode one delivered batch into ``(records, wire_bytes)``.

    With the wire format on, fetch streams deliver encoded
    :class:`~repro.dfs.wire.WireBatch` frames and the decode happens
    here, on the fetch thread — the reducer-side half of the codec.
    Wire off delivers plain record lists (zero wire bytes).
    """
    if isinstance(batch, WireBatch):
        assert wire is not None
        return decode_batch(batch, wire), batch.wire_bytes
    return batch, 0


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
    watch: Stopwatch,
    task_span,
    attempt_base: int,
    *,
    obs: JobObservability,
    config: RecoveryConfig,
    injector: FetchFaultInjector | None = None,
    wire: WireConfig | None = None,
    inst: RunInstruments | None = None,
    stop: "threading.Event | None" = None,
) -> tuple[list[Record], Counters, list[tuple[str, str, float, float]]]:
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
    tracer = obs.tracer if task_span is not None else None
    buffers: list[list[Record]] = [[] for _ in range(num_maps)]
    # Buffered batches are not consumed until the sort buffer is
    # final: an epoch change can still discard them.
    ledger = FetchLedger(obs.counters, consume_on_admit=False)
    timeline: list[tuple[str, str, float, float]] = []
    shuffle_start = watch.elapsed()
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
                events=obs.events,
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
        timeline.append(
            ("shuffle", f"shuffle-{reducer_index}", shuffle_start, watch.elapsed())
        )
        if fetch_errors:
            raise fetch_errors[0]
        if stop is not None and stop.is_set():
            raise ReducePreemptedError(reducer_index, 0)

        records: list[Record] = []
        for buffer in buffers:
            records.extend(buffer)
        ledger.seal(len(records))

        sort_start = watch.elapsed()
        if tracer is not None:
            with tracer.span("sort", "op", parent=task_span):
                records.sort(key=lambda record: record.key)
        else:
            records.sort(key=lambda record: record.key)
        timeline.append(
            ("sort", f"sort-{reducer_index}", sort_start, watch.elapsed())
        )

        reduce_start = watch.elapsed()
        local_counters = Counters()
        local_counters.increment("shuffle.records", len(records))
        reducer = prepare_reducer(job)
        store = getattr(reducer, "_store", None)
        if inst is not None and store is not None:
            store_token = inst.store_bytes.add(store.memory_used)
        stream = crash_checked(records, reducer_index, injector)

        def run_reduce():
            context = make_reduce_context(job, stream, local_counters)
            reducer.run(context)
            return context.drain()

        if tracer is not None:
            with tracer.span("reduce", "op", parent=task_span):
                produced = run_reduce()
        else:
            produced = run_reduce()
        harvest_store_counters(reducer, local_counters)
        timeline.append(
            ("reduce", f"reduce-{reducer_index}", reduce_start, watch.elapsed())
        )
        return produced, local_counters, timeline
    finally:
        if inst is not None:
            if depth_token is not None:
                inst.buffer_depth.remove(depth_token)
            if store_token is not None:
                inst.store_bytes.remove(store_token)


def run_pipelined_reduce_attempt(
    job: JobSpec,
    service,
    reducer_index: int,
    num_maps: int,
    watch: Stopwatch,
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
) -> tuple[list[Record], Counters, list[tuple[str, str, float, float]]]:
    """Fetch threads into one shared buffer + FIFO reduce, pipelined.

    Records are consumed the moment they are admitted, so a mapper
    epoch change cannot take them back — the ledger instead discards
    the re-fetched duplicates by sequence number (the expensive half
    of the recovery asymmetry: barrier-less re-fetch must dedup).

    With checkpointing enabled (``recovery.can_checkpoint``) the
    attempt first tries to resume: a valid snapshot whose per-mapper
    epochs still match the service restores the store, seeds the
    ledger's dedup horizon, and starts each fetch stream at its
    persisted sequence number — only the un-consumed tail of each
    stream is replayed.  A snapshot that is torn/corrupt, or whose
    source mapper re-executed after it was cut, is discarded (fail
    closed) and the attempt refolds from zero.

    ``stop`` makes the attempt *preemptible*: when the event is set,
    the next wire-batch boundary cuts a forced checkpoint (stamped
    :data:`~repro.memory.checkpoint.PREEMPT_META_KEY`) and the attempt
    unwinds with :class:`ReducePreemptedError` — everything folded so
    far is on disk, so a later attempt restores it and replays only
    the tail.  Batch boundaries are the only stop points: the store is
    consistent there, exactly as for a periodic snapshot.
    """
    tracer = obs.tracer if task_span is not None else None
    task_id = f"reduce-{reducer_index}"
    shared: "queue.Queue" = queue.Queue()
    cancelled = threading.Event()
    ledger = FetchLedger(obs.counters, consume_on_admit=True)
    shuffle_start = watch.elapsed()
    fetch_errors: list[BaseException] = []
    # The FIFO buffer's occupancy in records: delivered batches add,
    # each batch the reduce thread has finished folding subtracts.
    depth = LiveGauge()
    depth_token = (
        inst.buffer_depth.add(depth.value) if inst is not None else None
    )
    store_token = None

    # Size-based flow control: fetch threads block once the decoded
    # batches waiting in the shared buffer exceed the wire window,
    # replacing the old unbounded per-record handoff.
    flow = (
        FlowController(wire.max_inflight_bytes)
        if wire is not None
        else None
    )

    local_counters = Counters()
    reducer = prepare_reducer(job)
    store = getattr(reducer, "_store", None)
    flush = store_flush(reducer)
    if inst is not None and store is not None:
        store_token = inst.store_bytes.add(store.memory_used)

    rec = recovery
    backing = innermost_store(store)
    ckpt_active = (
        rec is not None
        and rec.can_checkpoint
        and hasattr(backing, "checkpoint")
        and hasattr(backing, "restore")
    )
    # Per-mapper fold progress of THIS attempt:
    # mapper -> [next batch seq, epoch of those batches, records folded].
    progress: dict[int, list[int]] = {}
    # Record classification (reconciliation invariant per partition:
    # restored + replayed + refolded + live == total records).
    counts = {"live": 0, "replayed": 0, "refolded": 0, "restored": 0}
    resumed = False
    since = {"records": 0, "bytes": 0, "t": time.monotonic()}

    if ckpt_active and checkpoint_exists(rec.directory):
        span = (
            tracer.open("checkpoint.restore", "op", parent=task_span)
            if tracer is not None
            else None
        )
        try:
            try:
                meta = peek_checkpoint_meta(rec.directory)
                snapshot = {
                    int(mapper): tuple(state)
                    for mapper, state in meta.get("progress", {}).items()
                }
                stale = sorted(
                    mapper
                    for mapper, (_seq, epoch, _recs) in snapshot.items()
                    if service.epoch_of(mapper) != epoch
                )
                if stale:
                    # A source mapper re-executed after the snapshot
                    # was cut.  Its folds are mixed into the store
                    # and cannot be subtracted, so the whole snapshot
                    # is stale: discard it and refold from zero.
                    obs.counters.increment("reduce.checkpoint.stale")
                    obs.events.emit(
                        "checkpoint.stale", task=task_id, mappers=stale
                    )
                    discard_checkpoint(rec.directory)
                else:
                    store.restore(rec.directory)
                    for mapper, (seq, epoch, recs) in snapshot.items():
                        ledger.seed(mapper, seq)
                        progress[mapper] = [seq, epoch, recs]
                    counts["restored"] = sum(
                        state[2] for state in snapshot.values()
                    )
                    resumed = True
                    obs.counters.increment("reduce.checkpoint.restores")
                    obs.counters.increment(
                        "reduce.checkpoint.restored_records",
                        counts["restored"],
                    )
                    obs.events.emit(
                        "checkpoint.restore",
                        task=task_id,
                        records=counts["restored"],
                        mappers=len(snapshot),
                    )
            except CheckpointError as exc:
                # Torn or corrupted snapshot: fail closed to refold.
                obs.counters.increment("reduce.checkpoint.invalid")
                obs.events.emit(
                    "checkpoint.invalid", task=task_id, reason=str(exc)
                )
                discard_checkpoint(rec.directory)
        finally:
            if span is not None:
                span.attrs["records"] = counts["restored"]
                span.attrs["resumed"] = resumed
                tracer.close(span)

    def write_snapshot(preempted: bool = False) -> None:
        # Runs on the reduce thread at a batch boundary, so the store
        # holds exactly the folds `progress` describes.
        meta = {
            "progress": {
                mapper: tuple(state) for mapper, state in progress.items()
            }
        }
        if preempted:
            meta[PREEMPT_META_KEY] = True
        span = (
            tracer.open("checkpoint.write", "op", parent=task_span)
            if tracer is not None
            else None
        )
        stats = None
        try:
            stats = store.checkpoint(rec.directory, meta=meta)
        finally:
            if span is not None:
                if stats is not None:
                    span.attrs["records"] = stats.records
                    span.attrs["bytes"] = stats.bytes
                tracer.close(span)
        obs.counters.increment("reduce.checkpoint.writes")
        obs.counters.increment("reduce.checkpoint.bytes", stats.bytes)
        obs.counters.increment("reduce.checkpoint.records", stats.records)
        obs.events.emit(
            "checkpoint.write",
            task=task_id,
            records=stats.records,
            bytes=stats.bytes,
        )
        since["records"] = 0
        since["bytes"] = 0
        since["t"] = time.monotonic()

    def on_batch_folded(
        mapper: int, seq: int, epoch: int, count: int, nbytes: int
    ) -> None:
        # Everything owed per batch is paid here, once: the write-back
        # first, so snapshots and preempt cuts see a consistent store.
        flush()
        local_counters.increment("shuffle.records", count)
        depth.add(-count)
        state = progress.get(mapper)
        base = state[2] if state is not None else 0
        prior = (
            rec.prior_records.get(mapper, 0) if rec is not None else 0
        )
        # Records this batch re-does: cumulative positions below the
        # furthest prior attempt's progress.  With a restored snapshot
        # they are tail replay; without one they are refolds.
        redone = max(0, min(base + count, prior) - base)
        if resumed:
            counts["replayed"] += redone
        else:
            counts["refolded"] += redone
        counts["live"] += count - redone
        progress[mapper] = [seq + 1, epoch, base + count]
        if rec is not None and base + count > prior:
            # Keep the recovery object's high-water mark current while the
            # attempt runs (not just on failure): a host that dies without
            # an exception path — a SIGKILLed cluster worker — can still
            # have reported this progress out-of-band (heartbeats), and
            # the update never reclassifies the attempt's own records
            # (``prior`` was read before the bump, and from here on
            # ``prior == base`` makes ``redone`` zero).
            rec.prior_records[mapper] = base + count
        since["records"] += count
        since["bytes"] += nbytes
        if stop is not None and stop.is_set():
            # Preempted: the boundary we are standing on is the cut.
            folded = sum(state[2] for state in progress.values())
            if ckpt_active:
                write_snapshot(preempted=True)
            obs.events.emit(
                "reduce.preempt",
                task=task_id,
                records=folded,
                checkpointed=ckpt_active,
            )
            raise ReducePreemptedError(reducer_index, folded)
        if ckpt_active and rec.policy.due(
            since["records"],
            since["bytes"],
            time.monotonic() - since["t"],
        ):
            write_snapshot()

    def note_progress() -> None:
        if rec is not None:
            rec.note_attempt_progress(
                {mapper: state[2] for mapper, state in progress.items()}
            )

    def deliver(batch, mapper: int, seq: int, epoch: int) -> None:
        records, nbytes = open_batch(batch, wire)
        if flow is not None:
            flow.acquire(nbytes, cancelled)
        depth.add(len(records))
        shared.put((records, nbytes, mapper, seq, epoch))
        obs.metrics.observe_max("shuffle.buffer.hwm", depth.value())

    def fetch_worker(mapper: int) -> None:
        if inst is not None:
            inst.inflight.add(1)
        state = progress.get(mapper)
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
                events=obs.events,
                tracer=tracer,
                parent=task_span,
                cancelled=cancelled,
                attempt_base=attempt_base,
                start_seq=state[0] if state is not None else 0,
                start_epoch=state[1] if state is not None else None,
            )
        except BaseException as exc:
            fetch_errors.append(exc)
        finally:
            if inst is not None:
                inst.inflight.add(-1)
            shared.put(SENTINEL)

    threads = [
        threading.Thread(
            target=fetch_worker, args=(m,), name=f"fetch-{reducer_index}-{m}"
        )
        for m in range(num_maps)
    ]
    for thread in threads:
        thread.start()

    stream = RecordStream(
        shared,
        num_maps,
        on_batch_done=flow.release if flow is not None else None,
        on_batch_folded=on_batch_folded,
    )
    try:
        def run_reduce():
            context = make_reduce_context(
                job,
                stream,
                local_counters,
                reduce_record_hook(injector, reducer_index),
            )
            reducer.run(context)  # consumes batches as they arrive
            for thread in threads:
                thread.join()
            return context

        if tracer is not None:
            with tracer.span("shuffle+reduce", "op", parent=task_span):
                context = run_reduce()
        else:
            context = run_reduce()
    except BaseException:
        # Reduce crashed (e.g. an injected ReducerCrashError): stop
        # the fetch threads before the restart re-fetches cleanly,
        # and record how far this attempt folded so the committing
        # attempt can classify its re-done work.
        note_progress()
        cancelled.set()
        for thread in threads:
            thread.join()
        raise
    finally:
        if inst is not None:
            if depth_token is not None:
                inst.buffer_depth.remove(depth_token)
            if store_token is not None:
                inst.store_bytes.remove(store_token)
    if fetch_errors:
        note_progress()
        raise fetch_errors[0]
    if ckpt_active or counts["replayed"] or counts["refolded"] or counts["restored"]:
        # Materialise the classification only when recovery machinery
        # was in play, keeping clean-run counter dicts identical to
        # the pre-checkpoint engines.
        local_counters.increment("reduce.live_records", counts["live"])
        local_counters.increment(
            "reduce.replayed_records", counts["replayed"]
        )
        local_counters.increment(
            "reduce.refolded_records", counts["refolded"]
        )
        local_counters.increment(
            "reduce.restored_records", counts["restored"]
        )
    harvest_store_counters(reducer, local_counters)
    timeline = [
        (
            "shuffle+reduce",
            f"shuffle+reduce-{reducer_index}",
            shuffle_start,
            watch.elapsed(),
        )
    ]
    return context.drain(), local_counters, timeline
