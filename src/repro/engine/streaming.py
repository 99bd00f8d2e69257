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

The fold bookkeeping is :mod:`repro.engine.fold`'s, the same ledger the
threaded and cluster reducers drive: a session's journal is its one
*source* (source 0, epoch 0).  With a
:class:`~repro.engine.recovery.RecoveryConfig` carrying a
:class:`~repro.memory.checkpoint.CheckpointPolicy`, the ledger also
snapshots the store periodically (on the reduce thread, at batch
boundaries, after the store write-back, so the snapshot's record count
is exact).  A restart then restores the snapshot and replays only the
journal *tail* past it — resume instead of refold.  A torn snapshot, one
in another layout, or one that claims more records than the journal
holds (a leftover from some other stream's life) fails closed to a full
journal replay.
"""

from __future__ import annotations

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
    close_store,
    finish_result,
    harvest_store_counters,
    prepare_reducer,
    run_map_task_encoded,
)
from repro.dfs.wire import (
    WireConfig,
    account_batches,
    compression_ratio,
    decode_batch,
)
from repro.engine.faults import TaskAttemptError
from repro.engine.fold import ReduceTaskRecovery, fold_batches
from repro.engine.recovery import (
    FetchFaultInjector,
    RecoveryConfig,
    reduce_record_hook,
)
from repro.engine.runtime import checkpoint_gate
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

    def check_in(self):
        # Optional on a store; the write-back in front calls it per batch.
        check_in = getattr(self._inner, "check_in", None)
        if check_in is not None:
            with self._lock:
                check_in()

    def __len__(self):
        with self._lock:
            return len(self._inner)


class _ReducerSession:
    """One long-lived reducer: its thread, queue, store and context.

    Keeps a *journal* of every record routed to it; on a crash the
    session is rebuilt from scratch (fresh store, fresh context) and the
    journal replayed, after which the stream continues where it left off.
    With a wire config the journal holds encoded
    :class:`~repro.dfs.wire.WireBatch` frames instead of record lists —
    the journalled bytes are the wire bytes, and a replay decodes them
    again exactly like a re-fetch.

    ``recovery`` is the session's fold ledger, kept across incarnations:
    the journal is its source 0, its cursor is a record count.
    """

    def __init__(
        self,
        job: JobSpec,
        reducer_index: int,
        recovery: ReduceTaskRecovery,
        obs: JobObservability,
        injector: FetchFaultInjector | None = None,
        wire: WireConfig | None = None,
    ):
        self._job = job
        self._index = reducer_index
        self.recovery = recovery
        self._obs = obs
        self._injector = injector
        self._wire = wire
        #: Batches as pushed: ``WireBatch`` frames, or record lists wire off.
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
        # A snapshot is this stream's own only if it claims no more
        # records of source 0 than the journal ever held.
        total = self.journal_records()
        cursors = self.recovery.begin(
            getattr(self.reducer, "_store", None),
            lambda source, _epoch, records: source == 0 and records <= total,
            self._obs,
            time.monotonic(),
        )
        self.context = BatchReduceContext(
            fold_batches(
                self._arrivals(cursors.get(0, (0, 0))[0]), self._batch_done
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

    # -- the reducer's input (reduce thread) -----------------------------------

    def enqueue(self, records: list[Record]) -> None:
        """Hand the reducer thread records, in write-back-sized batches."""
        for start in range(0, len(records), BATCH_RECORDS):
            batch = records[start : start + BATCH_RECORDS]
            self.depth.add(len(batch))
            self.queue.put(batch)

    def _arrivals(self, seq: int) -> Iterator[tuple[list[Record], int]]:
        """Dequeue ``(batch, seq)`` items until the sentinel.

        A :class:`_SyncToken` is armed when it is dequeued, which
        :func:`~repro.engine.fold.fold_batches` does only after paying
        the previous batch's boundary — so every batch queued before the
        token is in the store by then.
        """
        while True:
            item = self.queue.get()
            if item is _SENTINEL:
                return
            if isinstance(item, _SyncToken):
                item.arm()
                continue
            yield item, seq
            seq += 1

    def _batch_done(self, batch: list[Record], seq: int) -> None:
        self.depth.add(-len(batch))
        self.recovery.folded(0, seq, 0, len(batch), 0, time.monotonic())

    # -- recovery ------------------------------------------------------------

    def journal_records(self) -> int:
        """Total records the journal holds (across wire batch frames)."""
        return sum(len(batch) for batch in self.journal)

    def restart(self) -> None:
        """Rebuild the reducer; resume from a snapshot or replay in full."""
        self.crashed = False
        close_store(self.reducer)  # the dead incarnation's spill files
        self._start()
        skip = self.recovery.records_folded  # what a snapshot restored
        for batch in self.journal:
            if skip >= len(batch):
                skip -= len(batch)
                continue
            if self._wire is not None:
                batch = decode_batch(batch, self._wire)
            self.enqueue(batch[skip:])
            skip = 0


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
        recovery = recovery if recovery is not None else RecoveryConfig()
        self._ckpt_owned: tempfile.TemporaryDirectory | None = None
        ckpt_root = recovery.checkpoint_dir
        if recovery.checkpoint_enabled and ckpt_root is None:
            self._ckpt_owned = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
            ckpt_root = self._ckpt_owned.name
        make_recovery = checkpoint_gate(job, recovery, ckpt_root)
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
                job, i, make_recovery(i), self.obs, fault_injector, self._wire
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
            streams = run_map_task_encoded(
                self.job, pairs, self.counters, self._wire
            )
        self.counters.increment("map.tasks")
        routed = 0
        for index, batches in streams.items():
            session = self._sessions[index]
            session.journal.extend(batches)
            if self._wire is not None:
                # Each routed partition slice crosses the wire as framed
                # batches: the journal keeps the frames (replay = decode
                # again), and the live path consumes the decoded records.
                account_batches(self.obs.counters, batches)
                batches = [decode_batch(batch, self._wire) for batch in batches]
            for batch in batches:
                session.enqueue(batch)
                routed += len(batch)
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
            session.recovery.finish(session.counters)
            harvest_store_counters(session.reducer, session.counters)
            output[index] = session.context.drain()
            close_store(session.reducer)
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
