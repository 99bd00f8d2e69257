"""Disk spill-and-merge partial-result store (§5.1, Figure 5(b)).

The store buffers partial results in a hash table and produces key order
only where §5.1 consumes it.  When the estimated footprint reaches
``spill_threshold_bytes`` the buffer is sorted once — a C timsort, the
merge sort the paper's Sort loses to when it pays a red-black insert per
record instead — and drained into a newly created spill file, a *sorted
run*.  The final ``finalize``/``items`` pass performs the paper's merge
phase: a k-way merge across all runs plus the sorted residual buffer,
combining the partial results of equal keys with a user ``merge_fn``
(functionally the combiner) and yielding each key exactly once in
ascending order.  A run sorted when it is cut holds exactly what a tree
drained in order would have written, so spill points and file bytes do
not depend on how the buffer is organised in between.

Spill files are real files in the :mod:`repro.dfs.wire` framed format
(varint batch headers, optional zlib, CRC32 trailer per frame), so a
truncated or bit-flipped spill raises :class:`SerializationError` instead
of silently yielding corrupt partial results, and the merge streams from
disk with O(#files) resident batches rather than reloading spills
wholesale.  The number of files is bounded too: once :data:`MERGE_FAN_IN`
runs exist they are merged into one before the next is cut, so neither
the final merge nor a periodic checkpoint opens more than that many
descriptors however small the threshold is against the data.
"""

from __future__ import annotations

import os
import tempfile
from bisect import bisect_right
from itertools import islice
from operator import eq, itemgetter
from sys import getsizeof
from typing import Any, Callable, Iterable, Iterator

from repro.core.partial import MergeFunction
from repro.core.types import Key, Value
from repro.memory.checkpoint import (
    CheckpointStats,
    encode_entry_frames,
    read_checkpoint,
    read_entry_frames,
    write_checkpoint,
)
from repro.dfs.wire import write_batch
from repro.memory.estimator import (
    ENTRY_OVERHEAD_BYTES,
    FLAT_TYPES,
    MemoryTracker,
    deep_size,
)

#: Most sorted runs a store keeps, and so the most files one merge opens.
#: Hadoop's ``io.sort.factor`` plays this role; it is a constant here
#: because nothing about a job changes the right answer.
MERGE_FAN_IN = 64

_MISSING = object()
_KEY = itemgetter(0)


def _read_run(path: str) -> Iterator[list[tuple[Key, Value]]]:
    """Stream one wire-framed run file as its non-empty decoded frames;
    the file is open only while read.

    Closing the generator (or abandoning it to an exception) leaves the
    ``with`` and releases the descriptor.
    """
    with open(path, "rb") as fh:
        for entries in read_entry_frames(fh):
            if entries:
                yield entries


class SpillMergeStore:
    """Partial-result store with threshold-triggered spills and k-way merge.

    Implements :class:`repro.core.partial.PartialResultStore`.  Lookups
    (``get``/``contains``) see only the in-memory buffer — a key whose
    partial result was spilled starts a fresh partial, and the merge phase
    reconciles the pieces.  That is exactly the paper's design: "partial
    results for a single key may be spilled onto multiple different spill
    files", requiring the merge function to be commutative/associative.

    Keys must be hashable and mutually comparable.  The buffer never
    compares them, so keys that cannot be ordered (``1`` and ``"a"``)
    raise ``TypeError`` where order is first needed — the spill, snapshot
    or merge that sorts them — not at the ``put`` that brought them in.

    A partial that ``get`` has handed out is *checked out* until the
    key's next ``put`` or the next :meth:`check_in`: the caller is about
    to fold into it and write the result back, so spilling it meanwhile
    would put the same folds on disk and in the buffer, and the merge
    would count them twice.  A spill therefore holds checked-out entries
    back in the buffer.  With record-at-a-time use the window is empty
    (``put`` follows ``get``); behind a
    :class:`~repro.memory.writeback.WriteBackStore` it spans a batch,
    another key's write-back can spill inside it, and the write-back
    checks in at the batch boundary what it read and never wrote.

    ``on_sample`` receives the footprint estimate after every mutation so
    heap traces (Figure 5(b)) can be collected.
    """

    def __init__(
        self,
        merge_fn: MergeFunction,
        spill_threshold_bytes: int = 1 << 20,
        spill_dir: str | None = None,
        on_sample: Callable[[int], None] | None = None,
    ) -> None:
        if spill_threshold_bytes <= 0:
            raise ValueError("spill_threshold_bytes must be positive")
        self._merge_fn = merge_fn
        self._threshold = spill_threshold_bytes
        self._buffer: dict[Key, Value] = {}
        self._tracker = MemoryTracker()
        self._sizes: dict[Key, int] = {}
        #: Keys read since they were last written (see the class docstring).
        self._checked_out: set[Key] = set()
        #: Sorted runs on disk, oldest first.
        self._spill_paths: list[str] = []
        self._runs_cut = 0
        # One directory per store, under ``spill_dir`` when given: file
        # names come from a per-instance counter, so concurrent reducers
        # sharing a directory would overwrite each other's runs.
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
        self._owned_dir = tempfile.TemporaryDirectory(
            prefix="repro-spill-", dir=spill_dir
        )
        self._dir = self._owned_dir.name
        self._on_sample = on_sample
        self._finalized = False
        #: Threshold spills only; folding runs together is counted apart.
        self.spill_count = 0
        self.spilled_entries = 0
        self.spill_bytes_written = 0
        self.compactions = 0
        self.compaction_bytes_written = 0

    # -- PartialResultStore protocol ----------------------------------------

    def get(self, key: Key, default: Value = None) -> Value:
        value = self._buffer.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._checked_out.add(key)
        return value

    def put(self, key: Key, value: Value) -> None:
        if self._finalized:
            raise RuntimeError("store already finalized")
        self._checked_out.discard(key)
        # ``entry_size(key, value)`` written out, one call fewer per
        # write-back; ``tests/memory/test_spill.py`` pins the two together.
        new_cost = (
            ENTRY_OVERHEAD_BYTES
            + (getsizeof(key) if type(key) in FLAT_TYPES else deep_size(key))
            + (
                getsizeof(value)
                if type(value) in FLAT_TYPES
                else deep_size(value)
            )
        )
        sizes = self._sizes
        old_cost = sizes.get(key, 0)
        tracker = self._tracker
        # ``used`` is always the sum of ``_sizes``, so it never drops
        # below ``old_cost`` and needs no floor here.
        used = tracker.used + new_cost - old_cost
        # Spill *before* inserting: the entry being written must survive in
        # the buffer so the reducer's read-modify-update cycle can read it
        # back on the next fold.  (Spilling it away mid-cycle would hand
        # the reducer a missing partial.)  Crucially, the *previous*
        # version of this key must NOT reach the spill file: the incoming
        # value replaces it, and merging both at the end would double-count
        # everything the old partial already folded in.
        if used >= self._threshold:
            if old_cost:
                del self._buffer[key]
                del sizes[key]
                tracker.discharge(old_cost)
            self._spill()
            used = tracker.used + new_cost
        self._buffer[key] = value
        sizes[key] = new_cost
        tracker.used = used
        if used > tracker.peak:
            tracker.peak = used
        if self._on_sample is not None:
            self._on_sample(used)

    def contains(self, key: Key) -> bool:
        return key in self._buffer

    def items(self) -> Iterator[tuple[Key, Value]]:
        """Merged (key, partial) stream in ascending key order.

        Valid once per store after :meth:`finalize`; before finalize it
        exposes only the in-memory buffer (useful for inspection in tests).
        """
        if not self._finalized:
            return iter(self._sorted_buffer())
        return self._merged(self._sorted_buffer())

    def finalize(self) -> None:
        """Enter the merge phase; subsequent ``items()`` sees all spills."""
        self._finalized = True

    def memory_used(self) -> int:
        return self._tracker.used

    def __len__(self) -> int:
        # Number of distinct keys is unknowable without a merge; report the
        # buffered count plus spilled entries as an upper bound, which is
        # what spill-accounting call sites (benches) want.
        return len(self._buffer) + self.spilled_entries

    # -- extras -------------------------------------------------------------------

    def check_in(self) -> None:
        """Every partial handed out has been written back or let go.

        A reader that decided not to write (a membership test, a fold
        that changed nothing) calls this when its batch ends; a check-out
        that outlived the batch would keep the entry out of every later
        spill and shrink the buffer by its size for good.
        """
        self._checked_out.clear()

    @property
    def peak_memory(self) -> int:
        """High-water mark of the in-memory footprint."""
        return self._tracker.peak

    @property
    def num_spill_files(self) -> int:
        """How many sorted runs were cut (spills and restored snapshots).

        Not the number on disk now, which :data:`MERGE_FAN_IN` bounds.
        """
        return self._runs_cut

    def checkpoint(
        self, directory: str, *, meta: dict[str, Any] | None = None
    ) -> CheckpointStats:
        """Atomically snapshot the merged view (spills + buffer).

        Uses the non-destructive k-way merge, so the store keeps working —
        this is exactly the state a restarted attempt needs: each key's
        partial results already combined with ``merge_fn``.
        """
        merged = self._merged(self._sorted_buffer())
        return write_checkpoint(directory, merged, meta=meta)

    def restore(self, directory: str) -> dict[str, Any]:
        """Load a verified snapshot as one pre-sorted run; returns its meta.

        The snapshot becomes an extra sorted run for the final merge
        instead of being folded through the buffer, so restoring never
        triggers cascading spills and costs one sequential write.
        """
        meta, entries = read_checkpoint(directory)
        if entries:
            path = os.path.join(
                self._dir, f"restore-{self._runs_cut:05d}.wire"
            )
            self._add_run(path, entries)
        return meta

    def close(self) -> None:
        """Delete the spill directory and every run in it (idempotent)."""
        self._owned_dir.cleanup()

    # -- internals ------------------------------------------------------------------

    def _sorted_buffer(self) -> list[tuple[Key, Value]]:
        """The buffer's entries in ascending key order: one C sort."""
        return sorted(self._buffer.items(), key=_KEY)

    def _add_run(self, path: str, entries: Iterable[tuple[Key, Value]]) -> int:
        """Write one more sorted run of wire frames; returns its bytes.

        First folds the existing runs into one if there are
        :data:`MERGE_FAN_IN` of them, so the list never grows past that.
        """
        if len(self._spill_paths) >= MERGE_FAN_IN:
            self._compact()
        count, written = _write_run(path, entries)
        self._spill_paths.append(path)
        self._runs_cut += 1
        self.spilled_entries += count
        return written

    def _compact(self) -> None:
        """Merge every run on disk into one, which takes their place.

        All of them are older than anything still to be cut, so the new
        run stands first and ``merge_fn`` still sees each key's partials
        oldest to newest.
        """
        path = os.path.join(self._dir, f"merge-{self.compactions:05d}.wire")
        _count, written = _write_run(path, self._merged())
        for old in self._spill_paths:
            os.unlink(old)
        self._spill_paths = [path]
        self.compactions += 1
        self.compaction_bytes_written += written

    def _spill(self) -> None:
        """Sort the buffer and drain it to a new spill file.

        Checked-out entries stay behind, still charged.
        """
        buffer = self._buffer
        if not buffer:
            return
        held = [
            (key, buffer.pop(key), self._sizes[key])
            for key in self._checked_out
        ]
        if buffer:
            path = os.path.join(self._dir, f"spill-{self.spill_count:05d}.wire")
            self.spill_bytes_written += self._add_run(path, self._sorted_buffer())
            self.spill_count += 1
            buffer.clear()
        self._sizes.clear()
        self._tracker.reset()
        for key, value, cost in held:
            buffer[key] = value
            self._sizes[key] = cost
            self._tracker.charge(cost)
        if self._on_sample is not None:
            self._on_sample(self._tracker.used)

    def _merged(
        self, buffered: list[tuple[Key, Value]] | None = None
    ) -> Iterator[tuple[Key, Value]]:
        """K-way merge of the runs on disk (then ``buffered``), equal keys
        merged — the "repeatedly read the globally lowest key" loop of
        §5.1, a batch at a time.

        Each source (a run's frames, oldest first, then ``buffered`` as
        one batch) has one decoded batch in hand.  A source's unread
        batches hold only keys above its batch's last key, so nothing
        unread is at or below the smallest of those last keys: every
        entry up to it is moved into one chunk, oldest source first, and
        the chunk is stable-sorted, so a key's partials reach ``merge_fn``
        in the order they were cut.  Keys are unique within a source, so a
        chunk drawn from one source, and the tail once one source is
        left, pass through as they are.
        """
        runs = [_read_run(path) for path in self._spill_paths]
        sources: list[Iterator[list[tuple[Key, Value]]]] = list(runs)
        if buffered:
            sources.append(iter((buffered,)))
        merge_fn = self._merge_fn
        try:
            # [batch, first unread index, source] per source with entries left.
            heads = []
            for source in sources:
                batch = next(source, None)
                if batch is not None:
                    heads.append([batch, 0, source])
            while len(heads) > 1:
                bound = min([head[0][-1][0] for head in heads])
                chunk: list[tuple[Key, Value]] = []
                parts = 0
                for head in heads:
                    batch, start, source = head
                    if bound < batch[-1][0]:
                        stop = bisect_right(batch, bound, start, key=_KEY)
                        if stop == start:
                            continue
                        chunk += batch[start:stop]
                        head[1] = stop
                    else:
                        chunk += batch[start:] if start else batch
                        head[0] = next(source, None)
                        head[1] = 0
                    parts += 1
                heads = [head for head in heads if head[0] is not None]
                if parts == 1:
                    yield from chunk
                    continue
                chunk.sort(key=_KEY)
                keys = list(map(_KEY, chunk))
                # Sorting's distinct keys leave nothing to fold: one C
                # pass proves it and skips the per-entry loop below.
                if not any(map(eq, keys, islice(keys, 1, None))):
                    yield from chunk
                    continue
                key, value = chunk[0]
                for next_key, next_value in islice(chunk, 1, None):
                    if next_key == key:
                        value = merge_fn(value, next_value)
                    else:
                        yield key, value
                        key, value = next_key, next_value
                yield key, value
            if heads:
                batch, start, source = heads[0]
                yield from islice(batch, start, None)
                for batch in source:
                    yield from batch
        finally:
            # Deterministic descriptor release even when the merge is
            # abandoned mid-stream (closing a generator is idempotent).
            for run in runs:
                run.close()


def _write_run(
    path: str, entries: Iterable[tuple[Key, Value]]
) -> tuple[int, int]:
    """Write sorted entries as wire frames; returns (entries, bytes)."""
    count = 0
    written = 0
    with open(path, "wb") as fh:
        for batch in encode_entry_frames(entries):
            written += write_batch(fh, batch)
            count += batch.count
    return count, written
