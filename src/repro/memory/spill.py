"""Disk spill-and-merge partial-result store (§5.1, Figure 5(b)).

The store buffers partial results in an in-memory red-black tree.  When the
estimated footprint reaches ``spill_threshold_bytes`` the entire buffer is
drained *in key order* into a newly created spill file.  The final
``finalize``/``items`` pass performs the paper's merge phase: a k-way merge
across all spill files plus the residual in-memory buffer, combining the
partial results of equal keys with a user ``merge_fn`` (functionally the
combiner) and yielding each key exactly once in ascending order.

Spill files are real files in the :mod:`repro.dfs.wire` framed format
(varint batch headers, optional zlib, CRC32 trailer per frame), so a
truncated or bit-flipped spill raises :class:`SerializationError` instead
of silently yielding corrupt partial results, and the merge streams from
disk with O(#files) resident batches rather than reloading spills
wholesale.
"""

from __future__ import annotations

import heapq
import os
import tempfile
from typing import Any, BinaryIO, Callable, Iterable, Iterator

from repro.core.partial import MergeFunction
from repro.core.types import Key, Value
from repro.memory.checkpoint import (
    CheckpointStats,
    encode_entry_frames,
    read_checkpoint,
    write_checkpoint,
)
from repro.dfs.wire import read_frames, write_batch
from repro.memory.estimator import MemoryTracker, entry_size
from repro.memory.treemap import TreeMap


_MISSING = object()


class _SpillFileReader:
    """Sequential reader over one wire-framed spill file."""

    def __init__(self, path: str):
        self.path = path
        self._fh: BinaryIO | None = open(path, "rb")

    def __iter__(self) -> Iterator[tuple[Key, Value]]:
        # The finally clause runs on GeneratorExit too, so a consumer that
        # abandons the merge early (an exception mid-reduce, a closed
        # generator) still releases the descriptor.
        try:
            if self._fh is None:
                return
            for records in read_frames(self._fh, allow_pickle=True):
                for record in records:
                    yield record.key, record.value
        finally:
            self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class SpillMergeStore:
    """Partial-result store with threshold-triggered spills and k-way merge.

    Implements :class:`repro.core.partial.PartialResultStore`.  Lookups
    (``get``/``contains``) see only the in-memory buffer — a key whose
    partial result was spilled starts a fresh partial, and the merge phase
    reconciles the pieces.  That is exactly the paper's design: "partial
    results for a single key may be spilled onto multiple different spill
    files", requiring the merge function to be commutative/associative.

    A partial that ``get`` has handed out is *checked out* until the
    key's next ``put``: the caller is about to fold into it and write the
    result back, so spilling it meanwhile would put the same folds on
    disk and in the buffer, and the merge would count them twice.  A
    spill therefore holds checked-out entries back in the buffer.  With
    record-at-a-time use the window is empty (``put`` follows ``get``);
    behind a :class:`~repro.memory.writeback.WriteBackStore` it spans a
    batch, and another key's write-back can spill inside it.

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
        self._buffer = TreeMap()
        self._tracker = MemoryTracker()
        self._sizes: dict[Key, int] = {}
        #: Keys read since they were last written (see the class docstring).
        self._checked_out: set[Key] = set()
        self._spill_paths: list[str] = []
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
        self.spill_count = 0
        self.spilled_entries = 0
        self.spill_bytes_written = 0

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
        new_cost = entry_size(key, value)
        old_cost = self._sizes.get(key, 0)
        # Spill *before* inserting: the entry being written must survive in
        # the buffer so the reducer's read-modify-update cycle can read it
        # back on the next fold.  (Spilling it away mid-cycle would hand
        # the reducer a missing partial.)  Crucially, the *previous*
        # version of this key must NOT reach the spill file: the incoming
        # value replaces it, and merging both at the end would double-count
        # everything the old partial already folded in.
        if self._tracker.used + new_cost - old_cost >= self._threshold:
            if old_cost:
                self._buffer.remove(key)
                self._sizes.pop(key, None)
                self._tracker.discharge(old_cost)
            self._spill()
            old_cost = 0
        self._buffer.put(key, value)
        self._sizes[key] = new_cost
        if new_cost >= old_cost:
            self._tracker.charge(new_cost - old_cost)
        else:
            self._tracker.discharge(old_cost - new_cost)
        if self._on_sample is not None:
            self._on_sample(self._tracker.used)

    def contains(self, key: Key) -> bool:
        return key in self._buffer

    def items(self) -> Iterator[tuple[Key, Value]]:
        """Merged (key, partial) stream in ascending key order.

        Valid once per store after :meth:`finalize`; before finalize it
        exposes only the in-memory buffer (useful for inspection in tests).
        """
        if not self._finalized:
            yield from self._buffer.items()
            return
        yield from self._merged_stream()

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

    @property
    def peak_memory(self) -> int:
        """High-water mark of the in-memory footprint."""
        return self._tracker.peak

    @property
    def num_spill_files(self) -> int:
        """How many sorted runs were written (still readable until close)."""
        return len(self._spill_paths)

    def checkpoint(
        self, directory: str, *, meta: dict[str, Any] | None = None
    ) -> CheckpointStats:
        """Atomically snapshot the merged view (spills + buffer).

        Uses the non-destructive k-way merge, so the store keeps working —
        this is exactly the state a restarted attempt needs: each key's
        partial results already combined with ``merge_fn``.
        """
        return write_checkpoint(directory, self._merged_stream(), meta=meta)

    def restore(self, directory: str) -> dict[str, Any]:
        """Load a verified snapshot as one pre-sorted run; returns its meta.

        The snapshot becomes an extra sorted run for the final merge
        instead of being folded through the buffer, so restoring never
        triggers cascading spills and costs one sequential write.
        """
        meta, entries = read_checkpoint(directory)
        if entries:
            path = os.path.join(
                self._dir, f"restore-{len(self._spill_paths):05d}.wire"
            )
            count, _written = self._write_run(path, entries)
            self._spill_paths.append(path)
            self.spilled_entries += count
        return meta

    def close(self) -> None:
        """Delete the spill directory and every run in it (idempotent)."""
        self._owned_dir.cleanup()

    # -- internals ------------------------------------------------------------------

    def _write_run(
        self, path: str, entries: Iterable[tuple[Key, Value]]
    ) -> tuple[int, int]:
        """Write one sorted run of wire frames; returns (entries, bytes)."""
        count = 0
        written = 0
        with open(path, "wb") as fh:
            for batch in encode_entry_frames(entries):
                written += write_batch(fh, batch)
                count += batch.count
        return count, written

    def _spill(self) -> None:
        """Drain the buffer to a new spill file, sorted by key.

        Checked-out entries stay behind, still charged.
        """
        if len(self._buffer) == 0:
            return
        held = [
            (key, self._buffer.get(key), self._sizes[key])
            for key in self._checked_out
        ]
        for key, _value, _cost in held:
            self._buffer.remove(key)
        if len(self._buffer):
            path = os.path.join(self._dir, f"spill-{self.spill_count:05d}.wire")
            count, written = self._write_run(path, self._buffer.items())
            self.spilled_entries += count
            self.spill_bytes_written += written
            self._spill_paths.append(path)
            self.spill_count += 1
            self._buffer.clear()
        self._sizes.clear()
        self._tracker.reset()
        for key, value, cost in held:
            self._buffer.put(key, value)
            self._sizes[key] = cost
            self._tracker.charge(cost)
        if self._on_sample is not None:
            self._on_sample(self._tracker.used)

    def _merged_stream(self) -> Iterator[tuple[Key, Value]]:
        """K-way merge over spill files + buffer, merging equal keys."""
        readers = [_SpillFileReader(path) for path in self._spill_paths]
        try:
            streams: list[Iterator[tuple[Key, Value]]] = [
                iter(reader) for reader in readers
            ]
            streams.append(self._buffer.items())

            # heapq.merge performs the "repeatedly read the globally lowest
            # key" loop of §5.1 across all sorted runs.
            merged = heapq.merge(*streams, key=lambda entry: entry[0])
            current_key: Key = None
            current_value: Value = None
            have_current = False
            for key, value in merged:
                if have_current and key == current_key:
                    current_value = self._merge_fn(current_value, value)
                else:
                    if have_current:
                        yield current_key, current_value
                    current_key, current_value = key, value
                    have_current = True
            if have_current:
                yield current_key, current_value
        finally:
            # Deterministic descriptor release even when the merge is
            # abandoned mid-stream (close() is idempotent).
            for reader in readers:
                reader.close()
