"""Disk-spilling key/value store: the BerkeleyDB JE stand-in (§5.2).

The paper's second memory-management option keeps partial results in an
off-the-shelf key/value store with an in-memory cache that evicts to disk
under LRU.  We implement the same architecture from scratch, in the style
of Bitcask/BerkeleyDB JE:

- an append-only on-disk **log file** of CRC-framed records
  (:mod:`repro.dfs.wire` frames, one record per frame, so a truncated or
  bit-flipped log raises instead of yielding corrupt partial results);
- an in-memory **index** mapping key → (offset, length) of the latest
  version in the log;
- a byte-bounded **LRU cache** of deserialised entries in front of the log;
- a **write buffer** that batches appends, flushed when full ("transaction
  log buffers were maintained in memory and only written to stable storage
  when BerkeleyDB determines that they are full").

Every read-modify-update cycle of the reducer costs a cache probe and, on
miss, a random disk read — the access pattern whose ~30k ops/s ceiling made
BerkeleyDB lose in Figures 9 and 10.  Operation counters expose exactly the
statistics the simulator's cost model and the benches consume.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Callable, Iterator

from repro.core.types import Key, Value
from repro.dfs.serialization import SerializationError
from repro.dfs.wire import decode_frame, entry_pair
from repro.memory.checkpoint import (
    CheckpointStats,
    encode_entry_frame,
    read_checkpoint,
    write_checkpoint,
)
from repro.memory.estimator import entry_size
from repro.memory.policies import LRUCache


class SpillingKVStore:
    """LRU-cached, log-backed key/value store of partial results.

    Implements :class:`repro.core.partial.PartialResultStore`.  Unlike
    :class:`SpillMergeStore`, a spilled key remains visible to ``get`` (at
    the cost of a disk read), so no merge function is required — this is
    the generality/performance trade-off §5.3 discusses.
    """

    def __init__(
        self,
        cache_bytes: int = 1 << 20,
        write_buffer_bytes: int = 256 << 10,
        dir_path: str | None = None,
        on_sample: Callable[[int], None] | None = None,
    ) -> None:
        # One directory per store, under ``dir_path`` when given: every
        # instance names its log ``data.log``, so concurrent reducers
        # sharing a directory would append to one file.
        if dir_path is not None:
            os.makedirs(dir_path, exist_ok=True)
        self._owned_dir = tempfile.TemporaryDirectory(
            prefix="repro-kv-", dir=dir_path
        )
        self._log_path = os.path.join(self._owned_dir.name, "data.log")
        self._log = open(self._log_path, "a+b")
        self._index: dict[Key, tuple[int, int]] = {}
        self._cache = LRUCache(cache_bytes, on_evict=self._persist)
        self._dirty: set[Key] = set()
        self._write_buffer: list[tuple[Key, Value]] = []
        #: The write buffer as key -> newest value, for lookups.
        self._pending: dict[Key, Value] = {}
        self._write_buffer_bytes = 0
        self._write_buffer_cap = write_buffer_bytes
        self._on_sample = on_sample
        # Operation statistics (consumed by the simulator cost model).
        self.gets = 0
        self.puts = 0
        self.disk_reads = 0
        self.disk_writes = 0
        self.bytes_written = 0
        self.bytes_read = 0

    # -- PartialResultStore protocol ----------------------------------------

    def get(self, key: Key, default: Value = None) -> Value:
        self.gets += 1
        sentinel = object()
        cached = self._cache.get(key, sentinel)
        if cached is not sentinel:
            return cached
        pending = self._pending.get(key, sentinel)
        if pending is not sentinel:
            return pending
        location = self._index.get(key)
        if location is None:
            return default
        value = self._read_log(location)
        self._cache.put(key, value, entry_size(key, value))
        return value

    def put(self, key: Key, value: Value) -> None:
        self.puts += 1
        self._cache.put(key, value, entry_size(key, value))
        self._dirty.add(key)
        if self._on_sample is not None:
            self._on_sample(self.memory_used())

    def contains(self, key: Key) -> bool:
        return (
            key in self._cache
            or key in self._index
            or key in self._pending
        )

    def items(self) -> Iterator[tuple[Key, Value]]:
        """All entries in ascending key order (flushes dirty state first)."""
        self.finalize()
        for key in sorted(self._all_keys()):
            yield key, self.get(key)

    def finalize(self) -> None:
        """Flush the cache's dirty entries and the write buffer to the log."""
        for key, value in list(self._cache.items()):
            if key in self._dirty:
                self._persist(key, value)
        self._dirty.clear()
        self._flush_write_buffer()

    def memory_used(self) -> int:
        """Bytes held in the cache plus the unflushed write buffer."""
        return self._cache.used_bytes + self._write_buffer_bytes

    def __len__(self) -> int:
        return len(self._all_keys())

    # -- extras ------------------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Cache hits observed by ``get``."""
        return self._cache.hits

    @property
    def cache_misses(self) -> int:
        """Cache misses observed by ``get``."""
        return self._cache.misses

    def stats(self) -> dict[str, int]:
        """Snapshot of all operation counters."""
        return {
            "gets": self.gets,
            "puts": self.puts,
            "cache_hits": self._cache.hits,
            "cache_misses": self._cache.misses,
            "evictions": self._cache.evictions,
            "disk_reads": self.disk_reads,
            "disk_writes": self.disk_writes,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
        }

    def checkpoint(
        self, directory: str, *, meta: dict[str, Any] | None = None
    ) -> CheckpointStats:
        """Atomically snapshot all entries in ascending key order.

        Flushes dirty cache state and the write buffer first (via
        :meth:`items`), so the snapshot reflects every ``put`` so far; the
        store stays fully usable afterwards.
        """
        return write_checkpoint(directory, self.items(), meta=meta)

    def restore(self, directory: str) -> dict[str, Any]:
        """Load a verified snapshot straight into the log; returns its meta.

        Entries are appended to the data log with a cold cache — exactly
        the state after an eviction pass — so restored keys behave like
        any other spilled key (visible to ``get`` at disk-read cost).
        """
        meta, entries = read_checkpoint(directory)
        self._log.seek(0, os.SEEK_END)
        for key, value in entries:
            self._append_entry(key, value)
        self._log.flush()
        return meta

    def close(self) -> None:
        """Close the log file and delete its directory (idempotent)."""
        self._log.close()
        self._owned_dir.cleanup()

    # -- internals ------------------------------------------------------------------

    def _all_keys(self) -> set[Key]:
        keys = set(self._index)
        keys.update(key for key, _ in self._cache.items())
        keys.update(self._pending)
        return keys

    def _persist(self, key: Key, value: Value) -> None:
        """Eviction callback: queue the entry for append to the log."""
        self._write_buffer.append((key, value))
        self._pending[key] = value
        self._write_buffer_bytes += entry_size(key, value)
        self._dirty.discard(key)
        if self._write_buffer_bytes >= self._write_buffer_cap:
            self._flush_write_buffer()

    def _flush_write_buffer(self) -> None:
        if not self._write_buffer:
            return
        self._log.seek(0, os.SEEK_END)
        for key, value in self._write_buffer:
            self._append_entry(key, value)
        self._log.flush()
        self._write_buffer.clear()
        self._pending.clear()
        self._write_buffer_bytes = 0

    def _append_entry(self, key: Key, value: Value) -> None:
        """Append one framed entry at the log's current end position."""
        frame = encode_entry_frame([(key, value)]).frame
        offset = self._log.tell()
        self._log.write(frame)
        self._index[key] = (offset, len(frame))
        self.disk_writes += 1
        self.bytes_written += len(frame)

    def _read_log(self, location: tuple[int, int]) -> Value:
        offset, length = location
        self._log.seek(offset)
        payload = self._log.read(length)
        self.disk_reads += 1
        self.bytes_read += length
        if len(payload) != length:
            raise SerializationError("truncated kvstore log entry")
        entries, _end = decode_frame(payload, make=entry_pair)
        if len(entries) != 1:
            raise SerializationError("kvstore log frame must hold one record")
        return entries[0][1]
