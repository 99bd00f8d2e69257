"""Map-side output buffer with sort-and-spill (Hadoop's io.sort.mb path).

Hadoop mappers do not hold their output in memory: records accumulate in
a bounded buffer, and when it fills they are *sorted by (partition, key)*
and spilled to disk; at task end the sorted runs are merged into one
spill file per task whose partitions the reducers fetch.  This module
implements that substrate for the real engines:

- :class:`MapOutputBuffer` — bounded accumulation, sorted spills, and a
  final per-partition merge that streams each partition's records in key
  order.  With a :class:`~repro.dfs.wire.WireConfig` the spill files use
  the framed wire codec (typed encoding + optional zlib + CRC, Hadoop's
  IFile analogue) instead of per-entry pickle; either way the buffer is
  a context manager so spills never outlive a failed map task.
- :class:`MapOutputCollector` — "serialise at collect": where the
  concurrent engines' map output becomes wire frames, one record at a
  time, with no record list in between.

Because every partition segment the reducer fetches is already key-
sorted, the barrier path's reducer-side "merge sort" becomes a cheap
k-way merge of sorted runs — exactly Hadoop's design, and the reason the
paper's barrier-less Sort loses to it (§6.1.1): the framework's sort is
amortised across mappers and merges, while the red-black tree pays
per-record logarithmic insertion at one place.
"""

from __future__ import annotations

import heapq
import os
import pickle
import tempfile
from operator import itemgetter
from typing import Iterable, Iterator

from repro.core.types import (
    Counters,
    Key,
    PartitionFunction,
    Record,
    Value,
    default_partition,
)
from repro.dfs.serialization import encode_pair
from repro.dfs.wire import (
    WireConfig,
    encode_record_batches,
    read_frames,
    seal_encoded,
    write_batch,
)
from repro.memory.estimator import entry_size
from repro.memory.spill import MERGE_FAN_IN

#: Most exact-``str`` keys whose partition one collector remembers.
PARTITION_MEMO_KEYS = 4096

_RUN_ORDER = itemgetter(0, 1)  # (partition, key)


class MapOutputBuffer:
    """Bounded map-output accumulator with sorted spills.

    ``collect`` adds records; when the estimated footprint crosses
    ``buffer_bytes`` the contents are sorted by ``(partition, key)`` and
    written to a spill file.  ``partition_records(p)`` then streams
    partition ``p``'s records in key order, merging all spill runs plus
    the residual in-memory buffer.
    """

    def __init__(
        self,
        num_partitions: int,
        partition_fn: PartitionFunction,
        buffer_bytes: int = 1 << 20,
        spill_dir: str | None = None,
        wire: WireConfig | None = None,
    ):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        self.num_partitions = num_partitions
        self._partition_fn = partition_fn
        self._buffer_bytes = buffer_bytes
        self._wire = wire if wire is not None and wire.enabled else None
        self._records: list[tuple[int, Key, Value]] = []
        self._used = 0
        self._spills: list[str] = []
        # One directory per buffer, under ``spill_dir`` when given:
        # concurrent map tasks all count their spills from zero.
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
        self._owned_dir = tempfile.TemporaryDirectory(
            prefix="repro-mapout-", dir=spill_dir
        )
        self._dir = self._owned_dir.name
        self.spill_count = 0
        self.records_collected = 0
        self.bytes_spilled = 0
        self.raw_bytes_spilled = 0
        self.wire_bytes_spilled = 0

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "MapOutputBuffer":
        return self

    def __exit__(self, *exc_info) -> None:
        # Context-managed use guarantees spill files are deleted even
        # when the map function raises mid-task.
        self.close()

    # -- write side -------------------------------------------------------

    def collect(self, key: Key, value: Value) -> None:
        """Add one map output record, spilling if the buffer is full."""
        partition = self._partition_fn(key, self.num_partitions)
        self._records.append((partition, key, value))
        self._used += entry_size(key, value)
        self.records_collected += 1
        if self._used >= self._buffer_bytes:
            self._spill()

    def memory_used(self) -> int:
        """Estimated bytes currently buffered in memory."""
        return self._used

    def _spill(self) -> None:
        if not self._records:
            return
        self._records.sort(key=_RUN_ORDER)
        if len(self._spills) >= MERGE_FAN_IN:
            self._compact()
        raw, wire = self._write_run("spill", self._records)
        self.raw_bytes_spilled += raw
        self.wire_bytes_spilled += wire
        self.spill_count += 1
        self.bytes_spilled += self._used
        self._records = []
        self._used = 0

    def _compact(self) -> None:
        """Merge every run on disk into one, which takes their place.

        The merge can then never have more than :data:`MERGE_FAN_IN` runs
        open.  All of them are older than anything still to be cut, so
        the new run stands first and equal keys keep emission order.  A
        compaction is not a spill: the ``*_spilled`` totals do not move.
        """
        old, self._spills = self._spills, []
        runs = [self._read_run(spent) for spent in old]
        self._write_run("merge", heapq.merge(*runs, key=_RUN_ORDER))
        for spent in old:
            os.unlink(spent)

    def _write_run(
        self, kind: str, entries: Iterable[tuple[int, Key, Value]]
    ) -> tuple[int, int]:
        """Write one sorted run; returns its ``(raw, wire)`` frame bytes."""
        suffix = "wire" if self._wire is not None else "pkl"
        path = os.path.join(
            self._dir, f"map-{kind}-{self.spill_count:05d}.{suffix}"
        )
        self._spills.append(path)
        raw = wire = 0
        with open(path, "wb") as fh:
            if self._wire is not None:
                framed = (
                    Record((partition, key), value)
                    for partition, key, value in entries
                )
                for batch in encode_record_batches(framed, self._wire):
                    write_batch(fh, batch)
                    raw += batch.raw_bytes
                    wire += batch.wire_bytes
            else:
                for entry in entries:
                    pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return raw, wire

    # -- read side ---------------------------------------------------------------

    def count_spills(self, counters: Counters) -> None:
        """Add the task's ``map.output_spills`` / ``map.spill_bytes*`` totals."""
        counters.increment("map.output_spills", self.spill_count)
        counters.increment("map.spill_bytes", self.bytes_spilled)
        if self._wire is not None:
            counters.increment("map.spill_bytes.raw", self.raw_bytes_spilled)
            counters.increment("map.spill_bytes.wire", self.wire_bytes_spilled)

    def merged(self) -> Iterator[tuple[int, Key, Value]]:
        """Every record once, as ``(partition, key, value)`` in that order.

        One pass: each spill run is opened once and merged with the
        (sorted) residual buffer.  Ties across runs keep run order, which
        preserves per-mapper emission order within equal keys closely
        enough for combiner-less grouping.
        """
        self._records.sort(key=_RUN_ORDER)
        runs = [self._read_run(path) for path in self._spills]
        return heapq.merge(*runs, iter(self._records), key=_RUN_ORDER)

    def partition_records(self, partition: int) -> Iterator[Record]:
        """Stream one partition's records in ascending key order."""
        if not 0 <= partition < self.num_partitions:
            raise ValueError(f"no partition {partition}")
        for index, key, value in self.merged():
            if index == partition:
                yield Record(key, value)

    def all_partitions(self) -> dict[int, list[Record]]:
        """Materialise every partition (convenience for the engines)."""
        partitions: dict[int, list[Record]] = {
            p: [] for p in range(self.num_partitions)
        }
        for partition, key, value in self.merged():
            partitions[partition].append(Record(key, value))
        return partitions

    def _read_run(self, path: str) -> Iterator[tuple[int, Key, Value]]:
        with open(path, "rb") as fh:
            if self._wire is not None:
                for records in read_frames(fh, allow_pickle=False):
                    for record in records:
                        partition, key = record.key
                        yield partition, key, record.value
            else:
                while True:
                    try:
                        yield pickle.load(fh)
                    except EOFError:
                        return

    def close(self) -> None:
        """Delete the spill directory and every run in it (idempotent)."""
        self._owned_dir.cleanup()


class MapOutputCollector:
    """Serialise at collect: a map task's output, sealed as it is emitted.

    Hadoop's ``collect()`` serialises each record with its partition
    number the moment the mapper emits it; so does this.  :meth:`collect`
    picks the partition, encodes the pair once, appends the bytes to that
    partition's open chunk and seals a frame under
    :func:`~repro.dfs.wire.encode_record_batches`' rule exactly (cut
    *before* the record that would pass ``max_batch_records`` or
    ``max_batch_bytes``), so :meth:`finish` returns, frame for frame, what
    partitioning the task's record list and encoding each partition would
    — without the list.  With ``wire`` off the chunks are ``Record``
    lists cut at ``max_batch_records`` alone.

    The job's default partitioner is a pure function of ``repr(key)``, a
    byte-at-a-time hash in Python; for an exact ``str`` key its answer is
    remembered (at most :data:`PARTITION_MEMO_KEYS` keys a task).  Other
    key types are never remembered — ``1``, ``1.0`` and ``True`` are one
    dict key with three reprs — and neither is any other partitioner.
    """

    def __init__(
        self,
        num_partitions: int,
        partition_fn: PartitionFunction,
        wire: WireConfig | None = None,
    ):
        self.num_partitions = num_partitions
        self._partition_fn = partition_fn
        self._wire = wire if wire is not None and wire.enabled else None
        limits = self._wire if self._wire is not None else WireConfig()
        self._max_records = limits.max_batch_records
        self._max_bytes = limits.max_batch_bytes
        self._memo: dict[str, int] | None = (
            {} if partition_fn is default_partition else None
        )
        self._chunks: list[list] = [[] for _ in range(num_partitions)]
        self._chunk_bytes = [0] * num_partitions
        self._sealed: list[list] = [[] for _ in range(num_partitions)]

    def collect(self, key: Key, value: Value) -> None:
        """Route one emitted record to its partition and :meth:`add` it."""
        memo = self._memo
        if memo is None or type(key) is not str:
            self.add(self._partition_fn(key, self.num_partitions), key, value)
            return
        partition = memo.get(key)
        if partition is None:
            partition = self._partition_fn(key, self.num_partitions)
            if len(memo) < PARTITION_MEMO_KEYS:
                memo[key] = partition
        self.add(partition, key, value)

    def add(self, partition: int, key: Key, value: Value) -> None:
        """Append one record to a partition's stream, cutting if it is full."""
        chunk = self._chunks[partition]
        if self._wire is None:
            if len(chunk) >= self._max_records:
                self._cut(partition)
                chunk = self._chunks[partition]
            chunk.append(Record(key, value))
            return
        encoded = encode_pair(key, value)
        size = len(encoded)
        if chunk and (
            len(chunk) >= self._max_records
            or self._chunk_bytes[partition] + size > self._max_bytes
        ):
            self._cut(partition)
            chunk = self._chunks[partition]
        chunk.append(encoded)
        self._chunk_bytes[partition] += size

    def _cut(self, partition: int) -> None:
        chunk = self._chunks[partition]
        self._sealed[partition].append(
            seal_encoded(chunk, self._wire) if self._wire is not None else chunk
        )
        self._chunks[partition] = []
        self._chunk_bytes[partition] = 0

    def finish(self) -> dict[int, list]:
        """Seal the open chunks; ``{partition: [batch, ...]}``, all present."""
        for partition, chunk in enumerate(self._chunks):
            if chunk:
                self._cut(partition)
        return dict(enumerate(self._sealed))
