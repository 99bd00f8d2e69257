"""The barrier-less fold core: one batch-boundary generator, one ledger.

The paper's mechanism is one loop: a reducer folds records from a single
FIFO buffer as they arrive (§3.1), and because map output is retained a
dead reducer is rebuilt by re-consuming it (§8).  Every barrier-less
reducer in the repo runs that loop — ``LocalEngine``'s, the threaded
engine's, a cluster worker's, a streaming session's — and everything
owed *between two batches* is paid here, once:

- :func:`fold_batches` hands the reducer one record batch at a time and
  calls back when the consumer returns for the next one, i.e. when every
  record of the previous batch has been folded.  That callback is the
  batch boundary, the only point at which the store is consistent.
- :class:`ReduceTaskRecovery` is the ledger a host drives at that
  boundary.  :meth:`~ReduceTaskRecovery.begin` decides restore vs stale
  vs torn for a new attempt and returns each source's start cursor;
  :meth:`~ReduceTaskRecovery.folded` flushes the store write-back,
  classifies the batch (``restored + replayed + refolded + live`` is
  every record folded so far, after every call), advances the cursor
  and the cross-attempt high-water mark, and cuts a snapshot when the
  host was preempted or the policy says one is due;
  :meth:`~ReduceTaskRecovery.finish` materialises the four buckets.

A *source* is whatever feeds the reducer a sequenced stream: a mapper
(threaded, cluster: validity of a snapshot = the mapper's epoch has not
moved) or a streaming session's journal (one source, epoch 0, validity =
the snapshot claims no more records than the journal holds).  Both write
the same snapshot meta, ``{"progress": {source: (next_seq, epoch,
records)}}``.

The module is a state machine: it starts no thread, owns no queue or
socket and reads no clock — ``now`` is an argument — so the accounting
invariant can be checked at every boundary of a scripted run.  The
durable, CRC-verified writes stay in the store's own ``checkpoint`` /
``restore`` (:mod:`repro.memory.checkpoint`).  What needs threads (fetch
workers, flow control, gauges) stays in :mod:`repro.engine.runtime`.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Iterator

from repro.core.types import Counters
from repro.memory.checkpoint import (
    PREEMPT_META_KEY,
    CheckpointError,
    CheckpointPolicy,
    checkpoint_exists,
    discard_checkpoint,
    peek_checkpoint_meta,
)
from repro.memory.writeback import innermost_store

__all__ = ["ReducePreemptedError", "ReduceTaskRecovery", "fold_batches"]


def fold_batches(
    items: Iterable[tuple], on_folded: Callable[..., None]
) -> Iterator[list]:
    """Yield each item's record batch; pay its boundary on the way back.

    ``items`` are ``(records, *provenance)`` tuples.  Once the consumer
    comes back for the next batch it has processed every record of this
    one, and ``on_folded(records, *provenance)`` runs — on the consuming
    thread, before the next item is pulled from ``items``.
    """
    for item in items:
        yield item[0]
        on_folded(*item)


class ReducePreemptedError(BaseException):
    """A reduce attempt stopped cooperatively at a wire-batch boundary.

    Raised from :meth:`ReduceTaskRecovery.folded` when the host reports
    its stop flag set: the final checkpoint is cut (when checkpointing
    is active) and the attempt unwinds with this — *not* a task
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


def _no_flush() -> None:
    pass


class ReduceTaskRecovery:
    """One reducer's fold progress, within an attempt and across them.

    Across attempts it keeps the checkpoint policy, the reducer's
    snapshot directory and ``prior_records`` — per source, the furthest
    cumulative record count any attempt folded, which the committing
    attempt uses to split re-done work (``reduce.replayed_records`` with
    a restored snapshot, ``reduce.refolded_records`` without) from live
    work.  :meth:`begin` resets everything attempt-scoped.  Speculative
    backup attempts never share one: a backup racing the primary must
    not share its snapshot file.
    """

    __slots__ = (
        "policy", "directory", "index", "prior_records",
        "_store", "_flush", "_obs", "_tracer", "_span",
        "_active", "_resumed", "_progress", "_counts",
        "_since_records", "_since_bytes", "_since_t",
    )

    def __init__(
        self,
        policy: CheckpointPolicy | None = None,
        root: str | None = None,
        index: int = 0,
    ) -> None:
        self.policy = policy
        self.directory = (
            os.path.join(root, f"reduce-{index}")
            if policy is not None and root is not None
            else None
        )
        self.index = index
        #: source -> cumulative records folded by the furthest attempt so
        #: far.  Batch-granular, and kept current while an attempt runs:
        #: a host that dies without an exception path (a SIGKILLed
        #: cluster worker) has still reported it out-of-band.
        self.prior_records: dict[int, int] = {}
        self._active = False
        self._progress: dict[int, tuple[int, int, int]] = {}
        self._counts = {"live": 0, "replayed": 0, "refolded": 0, "restored": 0}

    @property
    def can_checkpoint(self) -> bool:
        return self.policy is not None and self.directory is not None

    @property
    def records_folded(self) -> int:
        """Records in the store right now (restored ones included)."""
        return sum(state[2] for state in self._progress.values())

    @property
    def buckets(self) -> dict[str, int]:
        """This attempt's record classification so far."""
        return dict(self._counts)

    # -- attempt start ---------------------------------------------------------

    def begin(
        self,
        store: Any,
        still_valid: Callable[[int, int, int], bool],
        obs,
        now: float,
        span=None,
    ) -> dict[int, tuple[int, int]]:
        """Start an attempt over a freshly built ``store``.

        With checkpointing on and a snapshot present, the snapshot is
        restored only if it is whole (full CRC pass first) and
        ``still_valid(source, epoch, records)`` holds for every source
        in its progress map.  One moved source invalidates all of it —
        its folds are mixed into the store and cannot be subtracted —
        and a torn file, or meta without a progress map (an older
        layout), is never interpreted: both are discarded and the
        attempt folds from zero.  Returns ``{source: (next_seq,
        epoch)}`` for the sources a restored snapshot covers (empty when
        nothing was restored): where each stream resumes.  ``span`` is
        the task span checkpoint op spans nest under (none: no spans).
        """
        self._store = store
        self._flush = getattr(store, "flush", _no_flush)
        self._obs = obs
        self._span = span
        self._tracer = obs.tracer if span is not None else None
        backing = innermost_store(store)
        self._active = (
            self.can_checkpoint
            and hasattr(backing, "checkpoint")
            and hasattr(backing, "restore")
        )
        self._resumed = False
        self._progress = {}
        self._counts = dict.fromkeys(self._counts, 0)
        self._since_records = self._since_bytes = 0
        self._since_t = now
        if self._active and checkpoint_exists(self.directory):
            self._restore(still_valid)
        return {
            source: (seq, epoch)
            for source, (seq, epoch, _records) in self._progress.items()
        }

    def _restore(self, still_valid: Callable[[int, int, int], bool]) -> None:
        obs, task = self._obs, f"reduce-{self.index}"
        span = self._open_span("checkpoint.restore")
        try:
            meta = peek_checkpoint_meta(self.directory)
            progress = meta.get("progress")
            if not isinstance(progress, dict) or not progress:
                raise CheckpointError("snapshot meta has no fold progress")
            snapshot = {
                int(source): tuple(state) for source, state in progress.items()
            }
            stale = sorted(
                source
                for source, (_seq, epoch, records) in snapshot.items()
                if not still_valid(source, epoch, records)
            )
            if stale:
                obs.counters.increment("reduce.checkpoint.stale")
                obs.events.emit("checkpoint.stale", task=task, mappers=stale)
                discard_checkpoint(self.directory)
                return
            self._store.restore(self.directory)
            self._progress = snapshot
            self._resumed = True
            restored = self._counts["restored"] = self.records_folded
            obs.counters.increment("reduce.checkpoint.restores")
            obs.counters.increment(
                "reduce.checkpoint.restored_records", restored
            )
            obs.events.emit(
                "checkpoint.restore",
                task=task,
                records=restored,
                mappers=len(snapshot),
            )
        except CheckpointError as exc:
            obs.counters.increment("reduce.checkpoint.invalid")
            obs.events.emit("checkpoint.invalid", task=task, reason=str(exc))
            discard_checkpoint(self.directory)
        finally:
            if span is not None:
                span.attrs["records"] = self._counts["restored"]
                span.attrs["resumed"] = self._resumed
                self._tracer.close(span)

    # -- the batch boundary ----------------------------------------------------

    def folded(
        self,
        source: int,
        seq: int,
        epoch: int,
        count: int,
        nbytes: int,
        now: float,
        stop: bool = False,
    ) -> None:
        """Batch ``seq`` of ``source`` (``count`` records) is fully folded.

        Everything owed per batch is paid here, once, in this order: the
        store write-back first, so a snapshot or preempt cut sees a
        consistent store; then classification, the cursor and the
        high-water mark; then the cut.  ``stop`` makes this boundary the
        attempt's last: a forced snapshot (stamped
        :data:`~repro.memory.checkpoint.PREEMPT_META_KEY`) and
        :class:`ReducePreemptedError`.
        """
        self._flush()
        state = self._progress.get(source)
        base = state[2] if state is not None else 0
        prior = self.prior_records.get(source, 0)
        # Records this batch re-does: cumulative positions below the
        # furthest attempt's progress.  ``prior`` is read before the
        # bump below, so an attempt never reclassifies its own records.
        redone = max(0, min(base + count, prior) - base)
        self._counts["replayed" if self._resumed else "refolded"] += redone
        self._counts["live"] += count - redone
        self._progress[source] = (seq + 1, epoch, base + count)
        if base + count > prior:
            self.prior_records[source] = base + count
        self._since_records += count
        self._since_bytes += nbytes
        if stop:
            if self._active:
                self._write_snapshot(now, preempted=True)
            records = self.records_folded
            self._obs.events.emit(
                "reduce.preempt",
                task=f"reduce-{self.index}",
                records=records,
                checkpointed=self._active,
            )
            raise ReducePreemptedError(self.index, records)
        if self._active and self.policy.due(
            self._since_records, self._since_bytes, now - self._since_t
        ):
            self._write_snapshot(now)

    def _write_snapshot(self, now: float, preempted: bool = False) -> None:
        meta: dict[str, Any] = {"progress": dict(self._progress)}
        if preempted:
            meta[PREEMPT_META_KEY] = True
        span = self._open_span("checkpoint.write")
        try:
            stats = self._store.checkpoint(self.directory, meta=meta)
            if span is not None:
                span.attrs["records"] = stats.records
                span.attrs["bytes"] = stats.bytes
        finally:
            if span is not None:
                self._tracer.close(span)
        counters = self._obs.counters
        counters.increment("reduce.checkpoint.writes")
        counters.increment("reduce.checkpoint.bytes", stats.bytes)
        counters.increment("reduce.checkpoint.records", stats.records)
        self._obs.events.emit(
            "checkpoint.write",
            task=f"reduce-{self.index}",
            records=stats.records,
            bytes=stats.bytes,
        )
        self._since_records = self._since_bytes = 0
        self._since_t = now

    def _open_span(self, name: str):
        if self._tracer is None:
            return None
        return self._tracer.open(name, "op", parent=self._span)

    # -- attempt end -----------------------------------------------------------

    def finish(self, counters: Counters) -> None:
        """Materialise ``reduce.{live,replayed,refolded,restored}_records``.

        Only when recovery machinery was in play, keeping clean-run
        counter dicts identical to an engine without any.
        """
        counts = self._counts
        if self._active or counts["live"] != sum(counts.values()):
            for name, value in counts.items():
                counters.increment(f"reduce.{name}_records", value)
