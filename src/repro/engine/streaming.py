"""Online (streaming) barrier-less execution.

§7 relates barrier-less MapReduce to online processing: "online processing
applications such as event monitoring or stream processing require
breaking the barrier to keep computations up-to-date ... we present a
general framework for breaking the barrier that can be used for both
online and batch processing."  This engine is that online half.

A :class:`StreamingEngine` accepts input in arbitrary micro-batches
(:meth:`push`), maps and routes records immediately, and folds them into
long-lived per-reducer partial-result stores.  At any moment
:meth:`snapshot` returns the job's *current* answer — e.g. running word
counts — which is only possible because the reduce path never waits for
"all values of a key": exactly the capability the barrier precluded.
:meth:`close` ends the stream and returns the final result, equal to what
a batch run over the concatenated input would produce.

Each reducer runs ``Reducer.run`` unmodified on its own thread, consuming
a blocking queue of record batches, so every barrier-less reducer written for the
batch engines works on streams without change.

Fault tolerance: a crashed reducer (injected through a
:class:`~repro.engine.recovery.FetchFaultInjector`) is restarted with a
fresh partial-result store and its partition's *journal* — every record
ever routed to it — replayed from the start.  This is the streaming form
of the paper's §8 recovery argument: because the map output is retained
(here, journalled), a barrier-less reducer can always be rebuilt by
re-consuming its input, and the stream then continues live.

With a :class:`~repro.engine.recovery.RecoveryConfig` carrying a
:class:`~repro.memory.checkpoint.CheckpointPolicy`, each session also
snapshots its store periodically (on the reduce thread, at batch
boundaries, after the store write-back, so the snapshot's ``records``
count is exact).  A restart
then restores the snapshot and replays only the journal *tail* past it —
resume instead of refold.  A torn snapshot, or one whose record count
exceeds the journal (a leftover from some other stream's life), fails
closed to a full journal replay.
"""

from __future__ import annotations

import os
import queue
import tempfile
import threading
import time
from typing import Iterator, Sequence

from repro.core.api import BatchReduceContext
from repro.core.job import JobSpec
from repro.core.patterns import BarrierlessReducer
from repro.core.types import (
    Counters,
    ExecutionMode,
    InvalidJobError,
    JobResult,
    Key,
    Record,
    StageTimes,
    Value,
)
from repro.engine.base import (
    BATCH_RECORDS,
    finish_result,
    harvest_store_counters,
    partition_records,
    prepare_reducer,
    reducer_is_checkpointable,
    reducer_is_store_backed,
    run_map_task,
    store_flush,
)
from repro.dfs.wire import (
    WireConfig,
    account_batches,
    compression_ratio,
    decode_batch,
    encode_record_batches,
)
from repro.engine.faults import TaskAttemptError
from repro.engine.recovery import (
    FetchFaultInjector,
    RecoveryConfig,
    reduce_record_hook,
)
from repro.memory.checkpoint import (
    CheckpointError,
    CheckpointPolicy,
    checkpoint_exists,
    discard_checkpoint,
    peek_checkpoint_meta,
)
from repro.memory import WriteBackStore
from repro.obs import JobObservability, LiveGauge, MetricsTicker

_SENTINEL = None


class _SyncToken:
    """A marker flushed through a reducer queue for exact snapshots.

    When the reducer thread dequeues the token, every record enqueued
    before it has been fully folded into the store, so a snapshot taken
    after :meth:`wait` is exact — not merely "probably drained".
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def arm(self) -> None:
        self._event.set()

    def wait(self, timeout: float = 10.0) -> bool:
        return self._event.wait(timeout)


class _LockedStore:
    """Serialises store access between the reduce thread and snapshots."""

    def __init__(self, inner, lock: threading.Lock):
        self._inner = inner
        self._lock = lock

    def get(self, key, default=None):
        with self._lock:
            return self._inner.get(key, default)

    def put(self, key, value):
        with self._lock:
            self._inner.put(key, value)

    def contains(self, key):
        with self._lock:
            return self._inner.contains(key)

    def items(self):
        with self._lock:
            return list(self._inner.items())

    def finalize(self):
        with self._lock:
            self._inner.finalize()

    def memory_used(self):
        with self._lock:
            return self._inner.memory_used()

    def checkpoint(self, directory, *, meta=None):
        with self._lock:
            return self._inner.checkpoint(directory, meta=meta)

    def restore(self, directory):
        with self._lock:
            return self._inner.restore(directory)

    def __len__(self):
        with self._lock:
            return len(self._inner)


class _QueueBatches:
    """Blocking record-batch iterable feeding a reducer thread.

    Queue items are record lists.  Once the reducer comes back for the
    next one, the previous batch is fully folded: the store write-back is
    flushed and ``on_folded(count)`` runs — a valid snapshot point on the
    reduce thread.  A :class:`_SyncToken` therefore arms only after every
    batch queued before it is in the store.
    """

    def __init__(self, batches: "queue.Queue", flush, on_folded):
        self._batches = batches
        self._flush = flush
        self._on_folded = on_folded

    def __iter__(self) -> Iterator[list[Record]]:
        while True:
            item = self._batches.get()
            if item is _SENTINEL:
                return
            if isinstance(item, _SyncToken):
                item.arm()
                continue
            yield item
            self._flush()
            self._on_folded(len(item))


class _ReducerSession:
    """One long-lived reducer: its thread, queue, store and context.

    Keeps a *journal* of every record routed to it; on a crash the
    session is rebuilt from scratch (fresh store, fresh context) and the
    journal replayed, after which the stream continues where it left off.
    With a wire config the journal holds encoded
    :class:`~repro.dfs.wire.WireBatch` frames instead of native records —
    the journalled bytes are the wire bytes, and a replay decodes them
    again exactly like a re-fetch.
    """

    def __init__(
        self,
        job: JobSpec,
        reducer_index: int,
        injector: FetchFaultInjector | None = None,
        wire: WireConfig | None = None,
        obs: JobObservability | None = None,
        policy: CheckpointPolicy | None = None,
        checkpoint_dir: str | None = None,
    ):
        self._job = job
        self._index = reducer_index
        self._injector = injector
        self._wire = wire
        self._obs = obs
        self._policy = policy
        self._ckpt_dir = checkpoint_dir
        #: Records fully folded by the current incarnation (including any
        #: restored from a snapshot) — the journal replay cursor.
        self.folded = 0
        self._since_records = 0
        self._since_t = time.monotonic()
        #: Wire on: list[WireBatch].  Wire off: list[Record].
        self.journal: list = []
        self.crashed = False
        self._start()

    def _start(self) -> None:
        self.queue: "queue.Queue" = queue.Queue()
        #: Records queued or in the batch being folded right now.
        self.depth = LiveGauge()
        self.lock = threading.Lock()
        self.counters = Counters()
        self.reducer = prepare_reducer(self._job)
        self.store = None
        if isinstance(self.reducer, BarrierlessReducer):
            # The lock goes *under* the write-back: snapshots read the
            # locked store from other threads and see it as of the last
            # batch boundary, while the reduce thread's per-record
            # traffic stays in its private dict.
            locked = _LockedStore(self.reducer.store._inner, self.lock)
            self.reducer.attach_store(WriteBackStore(locked))
            self.store = locked
        self.folded = 0
        self._since_records = 0
        self._since_t = time.monotonic()
        can_ckpt = (
            self._policy is not None
            and self._ckpt_dir is not None
            and self.store is not None
            and hasattr(self.store._inner, "checkpoint")
        )
        self.context = BatchReduceContext(
            _QueueBatches(
                self.queue,
                store_flush(self.reducer),
                self._on_folded if can_ckpt else self._count_folded,
            ),
            self.counters,
            # The crash fires *inside* ``Reducer.run``, at the configured
            # consumed-record index, where a real mid-fold failure would.
            reduce_record_hook(self._injector, self._index),
        )
        self.thread = threading.Thread(
            target=self._guarded_run,
            name=f"stream-reduce-{self._index}",
            daemon=True,
        )
        self.thread.start()

    def _guarded_run(self) -> None:
        try:
            self.reducer.run(self.context)
        except TaskAttemptError:
            # Injected crash: the partial store and any un-drained queue
            # contents die with this thread; restart() rebuilds both from
            # the journal (or its tail, with a checkpoint).
            self.crashed = True

    # -- checkpointing (reduce thread) ---------------------------------------

    def enqueue(self, records: list[Record]) -> None:
        """Hand the reducer thread records, in write-back-sized batches."""
        for start in range(0, len(records), BATCH_RECORDS):
            batch = records[start : start + BATCH_RECORDS]
            self.depth.add(len(batch))
            self.queue.put(batch)

    def _count_folded(self, count: int) -> None:
        self.folded += count
        self.depth.add(-count)

    def _on_folded(self, count: int) -> None:
        self._count_folded(count)
        self._since_records += count
        if self._policy.due(
            self._since_records, 0, time.monotonic() - self._since_t
        ):
            self._write_snapshot()

    def _write_snapshot(self) -> None:
        stats = self.store.checkpoint(
            self._ckpt_dir, meta={"records": self.folded}
        )
        if self._obs is not None:
            counters = self._obs.counters
            counters.increment("reduce.checkpoint.writes")
            counters.increment("reduce.checkpoint.bytes", stats.bytes)
            counters.increment("reduce.checkpoint.records", stats.records)
            self._obs.events.emit(
                "checkpoint.write",
                task=f"reduce-{self._index}",
                records=stats.records,
                bytes=stats.bytes,
            )
        self._since_records = 0
        self._since_t = time.monotonic()

    # -- recovery ------------------------------------------------------------

    def journal_records(self) -> int:
        """Total records the journal holds (across wire batch frames)."""
        if self._wire is not None:
            return sum(batch.count for batch in self.journal)
        return len(self.journal)

    def restart(self) -> None:
        """Rebuild the reducer; resume from a snapshot or replay in full."""
        prior = self.folded  # the dead incarnation's fold cursor
        self.crashed = False
        self._start()
        total = self.journal_records()
        replay_from = 0
        counters = self._obs.counters if self._obs is not None else None
        if self._ckpt_dir is not None and checkpoint_exists(self._ckpt_dir):
            try:
                meta = peek_checkpoint_meta(self._ckpt_dir)
                records = int(meta.get("records", 0))
                if 0 < records <= total:
                    self.store.restore(self._ckpt_dir)
                    replay_from = records
                    if counters is not None:
                        counters.increment("reduce.checkpoint.restores")
                        counters.increment(
                            "reduce.checkpoint.restored_records", records
                        )
                        # Classification bucket, mirroring the threaded
                        # engine: restored records were neither replayed
                        # nor refolded by the restarted incarnation.
                        counters.increment("reduce.restored_records", records)
                        self._obs.events.emit(
                            "checkpoint.restore",
                            task=f"reduce-{self._index}",
                            records=records,
                        )
                else:
                    # Claims more folds than this stream ever routed: a
                    # snapshot from some other life of the directory.
                    if counters is not None:
                        counters.increment("reduce.checkpoint.stale")
                        self._obs.events.emit(
                            "checkpoint.stale",
                            task=f"reduce-{self._index}",
                            records=records,
                        )
                    discard_checkpoint(self._ckpt_dir)
            except CheckpointError as exc:
                # Torn or corrupted snapshot: fail closed to full replay.
                if counters is not None:
                    counters.increment("reduce.checkpoint.invalid")
                    self._obs.events.emit(
                        "checkpoint.invalid",
                        task=f"reduce-{self._index}",
                        reason=str(exc),
                    )
                discard_checkpoint(self._ckpt_dir)
        self.folded = replay_from
        if counters is not None:
            # Only folds the dead incarnation had already done count as
            # re-done work; the rest of the journal is pending regardless.
            if replay_from:
                counters.increment(
                    "reduce.replayed_records", max(0, prior - replay_from)
                )
            else:
                counters.increment("reduce.refolded_records", prior)
        skip = replay_from
        if self._wire is not None:
            for batch in self.journal:
                if skip >= batch.count:
                    skip -= batch.count
                    continue
                self.enqueue(decode_batch(batch, self._wire)[skip:])
                skip = 0
        else:
            self.enqueue(self.journal[skip:])


class StreamingEngine:
    """Continuous barrier-less execution with live snapshots."""

    def __init__(
        self,
        job: JobSpec,
        obs: JobObservability | None = None,
        fault_injector: FetchFaultInjector | None = None,
        wire: WireConfig | None = None,
        recovery: RecoveryConfig | None = None,
    ):
        if job.mode is not ExecutionMode.BARRIERLESS:
            raise InvalidJobError(
                "streaming requires barrier-less mode: a barrier job cannot "
                "reduce before its input ends"
            )
        job.validate()
        self.job = job
        self.counters = Counters()
        self.obs = obs if obs is not None else JobObservability()
        self._fault_injector = fault_injector
        wire = wire if wire is not None else WireConfig()
        self._wire = wire if wire.enabled else None
        self._restarts = 0
        # Checkpoint/resume: only sound for reducers whose store is their
        # complete state (see CheckpointPolicy / reducer_is_checkpointable).
        self._ckpt_owned: tempfile.TemporaryDirectory | None = None
        ckpt_root: str | None = None
        if (
            recovery is not None
            and recovery.checkpoint_enabled
            and reducer_is_store_backed(job)
            and reducer_is_checkpointable(job)
        ):
            ckpt_root = recovery.checkpoint_dir
            if ckpt_root is None:
                self._ckpt_owned = tempfile.TemporaryDirectory(
                    prefix="repro-ckpt-"
                )
                ckpt_root = self._ckpt_owned.name
        # The job span stays open for the stream's whole life; map and
        # reduce stages overlap by construction (reducers consume pushes
        # as they arrive), so both open up front, like the threaded engine.
        self._job_span = self.obs.tracer.open(
            job.name, "job", mode=job.mode.value, engine="streaming"
        )
        self._map_stage = self.obs.tracer.open(
            "map", "stage", parent=self._job_span
        )
        self._reduce_stage = self.obs.tracer.open(
            "reduce", "stage", parent=self._job_span
        )
        self._sessions = [
            _ReducerSession(
                job,
                i,
                fault_injector,
                wire=self._wire,
                obs=self.obs,
                policy=recovery.checkpoint if ckpt_root is not None else None,
                checkpoint_dir=(
                    os.path.join(ckpt_root, f"reduce-{i}")
                    if ckpt_root is not None
                    else None
                ),
            )
            for i in range(job.num_reducers)
        ]
        self._task_spans = [
            self.obs.tracer.open(f"reduce-{i}", "task", parent=self._reduce_stage)
            for i in range(job.num_reducers)
        ]
        self._closed = False
        self._pushed_batches = 0
        self._routed_records = 0
        for i in range(job.num_reducers):
            self.obs.events.emit(
                "task.start", task=f"reduce-{i}", stage="reduce"
            )
        # Long-lived gauges: sessions are rebuilt on restart, so the
        # closures re-read the current queue/store every tick.
        metrics = self.obs.metrics
        metrics.register_gauge(
            "shuffle.buffer.depth", self._queued_records, unit="records"
        )
        metrics.register_gauge(
            "store.bytes", self._store_bytes, unit="bytes"
        )
        metrics.register_rate(
            "reduce.records_per_s",
            lambda: self._routed_records,
            unit="records/s",
        )
        metrics.register_gauge(
            "shuffle.compress.ratio",
            lambda: compression_ratio(self.obs.counters),
            unit="ratio",
        )
        self._ticker = MetricsTicker(metrics)
        self._ticker.start()

    def _queued_records(self) -> int:
        return sum(session.depth.value() for session in self._sessions)

    def _store_bytes(self) -> int:
        return sum(
            session.store.memory_used()
            for session in self._sessions
            if session.store is not None
        )

    # -- recovery ------------------------------------------------------------

    def _revive(self, session: _ReducerSession) -> None:
        """Restart a crashed reducer session and account for it."""
        self._restarts += 1
        self.obs.counters.increment("reduce.restarts")
        self.obs.events.emit(
            "reduce.restart", task=f"reduce-{session._index}"
        )
        if session.store is not None:
            self.obs.counters.increment("store.resets")
        session.restart()

    def _ensure_alive(self) -> None:
        """Restart any session whose reducer thread has crashed."""
        for session in self._sessions:
            if session.crashed:
                self._revive(session)

    # -- streaming input ----------------------------------------------------

    def push(self, pairs: Sequence[tuple[Key, Value]]) -> None:
        """Feed one micro-batch of input pairs (maps and routes now)."""
        if self._closed:
            raise RuntimeError("stream already closed")
        self._ensure_alive()
        with self.obs.tracer.span(
            f"push-{self._pushed_batches}", "task", parent=self._map_stage
        ):
            records = run_map_task(self.job, pairs, self.counters)
            partitions = partition_records(self.job, records)
        self.counters.increment("map.tasks")
        routed = 0
        for index, part in partitions.items():
            session = self._sessions[index]
            if self._wire is not None:
                # Each routed partition slice crosses the wire as framed
                # batches: the journal keeps the frames (replay = decode
                # again), and the live path consumes the decoded records.
                batches = encode_record_batches(part, self._wire)
                account_batches(self.obs.counters, batches)
                session.journal.extend(batches)
                for batch in batches:
                    session.enqueue(decode_batch(batch, self._wire))
            else:
                session.journal.extend(part)
                session.enqueue(part)
            routed += len(part)
        self._routed_records += routed
        self.obs.metrics.observe_max(
            "shuffle.buffer.hwm", self._queued_records()
        )
        self._pushed_batches += 1

    # -- live output ----------------------------------------------------------

    def snapshot(self) -> dict[Key, Value]:
        """The current partial answer across all reducers.

        Available for store-backed (``BarrierlessReducer``) jobs: the
        snapshot is each key's present partial result.  For aggregations
        this is the running aggregate — the "up-to-date computation" of
        online processing.  Reducers without a store (identity, cross-key,
        running aggregates) contribute their already-written output.
        """
        if self._closed:
            raise RuntimeError("stream already closed")
        self._ensure_alive()
        # Flush a sync token through every queue: once it arms, every
        # record enqueued before this snapshot has been folded.
        tokens = []
        for session in self._sessions:
            token = _SyncToken()
            session.queue.put(token)
            tokens.append(token)
        for session, token in zip(self._sessions, tokens):
            for _ in range(200):
                if token.wait(0.05):
                    break
                if session.crashed:
                    # The reducer died before reaching the token (the
                    # token died with its queue); restart, replay the
                    # journal, and re-flush.
                    self._revive(session)
                    session.queue.put(token)
            else:
                raise RuntimeError("reducer stalled; snapshot timed out")
        current: dict[Key, Value] = {}
        for session in self._sessions:
            if session.store is not None:
                for key, value in session.store.items():
                    current[key] = value
        return current

    # -- termination -------------------------------------------------------------

    def close(self) -> JobResult:
        """End the stream; returns the final batch-equivalent result."""
        if self._closed:
            raise RuntimeError("stream already closed")
        self._closed = True
        obs = self.obs
        obs.tracer.close(self._map_stage)
        self._ensure_alive()
        for session in self._sessions:
            session.queue.put(_SENTINEL)
        output: dict[int, list[Record]] = {}
        for index, session in enumerate(self._sessions):
            session.thread.join(timeout=30.0)
            if session.crashed:
                # Crashed between the last push and the sentinel: restart,
                # replay, and re-close the rebuilt session.
                self._revive(session)
                session.queue.put(_SENTINEL)
                session.thread.join(timeout=30.0)
            if session.thread.is_alive():  # pragma: no cover - watchdog
                raise RuntimeError(f"reducer {index} failed to terminate")
            harvest_store_counters(session.reducer, session.counters)
            output[index] = session.context.drain()
            self.counters.merge(session.counters)
            self.counters.increment("reduce.tasks")
            obs.events.emit(
                "task.finish", task=f"reduce-{index}", stage="reduce",
                status="ok",
            )
            obs.tracer.close(self._task_spans[index])
        self._ticker.stop()
        if self._ckpt_owned is not None:
            self._ckpt_owned.cleanup()
            self._ckpt_owned = None
        obs.tracer.close(self._reduce_stage)
        obs.tracer.close(self._job_span)
        obs.counters.merge_counters(self.counters)
        obs.counters.increment("task.attempts.map", self._pushed_batches)
        obs.counters.increment(
            "task.attempts.reduce", len(self._sessions) + self._restarts
        )
        obs.counters.increment(
            "task.attempts",
            self._pushed_batches + len(self._sessions) + self._restarts,
        )
        if self._restarts:
            obs.counters.increment("task.retries", self._restarts)
            obs.counters.increment("task.failed_attempts", self._restarts)
        return finish_result(self.job, output, self.counters, StageTimes())
