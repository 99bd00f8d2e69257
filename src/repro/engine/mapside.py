"""Map-side output buffer with sort-and-spill (Hadoop's io.sort.mb path).

Hadoop mappers do not hold their output in memory: records accumulate in
a bounded buffer, and when it fills they are *sorted by (partition, key)*
and spilled to disk; at task end the sorted runs are merged into one
spill file per task whose partitions the reducers fetch.  This module
implements that substrate for the real engines:

- :class:`MapOutputBuffer` — bounded accumulation, sorted spills, and a
  final one-pass merge that streams every record in ``(partition, key)``
  order.  Spill runs are wire frames (typed encoding + optional zlib +
  CRC, Hadoop's IFile analogue), the one run format; the buffer is a
  context manager so spills never outlive a failed map task.
- :class:`MapOutputCollector` — "serialise at collect": where every
  engine's map output becomes wire frames as it is emitted, with no
  record list in between.

A ``wire`` argument of ``None`` means ``WireConfig()``: every batch this
module writes or returns is a sealed :class:`~repro.dfs.wire.WireBatch`.

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
from repro.dfs.wire import (
    WireBatch,
    WireConfig,
    cut_frames,
    encode_record_batches,
    read_frames,
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
    written to a spill file.  :meth:`merged` then streams every record in
    that order, merging all spill runs plus the residual in-memory buffer.
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
        self._wire = wire if wire is not None else WireConfig()
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
        path = os.path.join(
            self._dir, f"map-{kind}-{self.spill_count:05d}.wire"
        )
        self._spills.append(path)
        raw = wire = 0
        framed = (
            Record((partition, key), value) for partition, key, value in entries
        )
        with open(path, "wb") as fh:
            for batch in encode_record_batches(framed, self._wire):
                write_batch(fh, batch)
                raw += batch.raw_bytes
                wire += batch.wire_bytes
        return raw, wire

    # -- read side ---------------------------------------------------------------

    def count_spills(self, counters: Counters) -> None:
        """Add the task's ``map.output_spills`` / ``map.spill_bytes*`` totals."""
        counters.increment("map.output_spills", self.spill_count)
        counters.increment("map.spill_bytes", self.bytes_spilled)
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

    def _read_run(self, path: str) -> Iterator[tuple[int, Key, Value]]:
        with open(path, "rb") as fh:
            for records in read_frames(fh):
                for record in records:
                    partition, key = record.key
                    yield partition, key, record.value

    def close(self) -> None:
        """Delete the spill directory and every run in it (idempotent)."""
        self._owned_dir.cleanup()


class MapOutputCollector:
    """Serialise at collect: a map task's output, sealed as it is emitted.

    Hadoop's ``collect()`` serialises each record with its partition
    number the moment the mapper emits it; this collector picks the
    partition per record and appends the key and value to that
    partition's open lists.  Once a partition holds ``max_batch_records``
    pairs, :func:`~repro.dfs.wire.cut_frames` seals what it can off their
    front, columnar when a frame's sides are one type each; a frame ends
    exactly where :func:`~repro.dfs.wire.encode_record_batches` would end
    it, so :meth:`finish` returns, frame for frame, what partitioning the
    task's record list and encoding each partition would — without the
    list, and without a per-record encode.

    The job's default partitioner is a pure function of ``repr(key)``, a
    byte-at-a-time hash in Python, and a task's keys repeat (a word count
    emits a few hundred words tens of thousands of times).  So for an
    exact ``str`` key the collector remembers the partition, at most
    :data:`PARTITION_MEMO_KEYS` keys a task.  Other key types are never
    remembered — ``1``, ``1.0`` and ``True`` are one dict key with three
    reprs — and neither is any key under another partitioner.
    """

    def __init__(
        self,
        num_partitions: int,
        partition_fn: PartitionFunction,
        wire: WireConfig | None = None,
    ):
        self.num_partitions = num_partitions
        self._partition_fn = partition_fn
        self._wire = wire if wire is not None else WireConfig()
        self._max_records = self._wire.max_batch_records
        #: ``{key: partition}`` for exact-``str`` keys.
        self._memo: dict[str, int] | None = (
            {} if partition_fn is default_partition else None
        )
        self._keys: list[list[Key]] = [[] for _ in range(num_partitions)]
        self._values: list[list[Value]] = [[] for _ in range(num_partitions)]
        self._sealed: list[list[WireBatch]] = [[] for _ in range(num_partitions)]

    def collect(self, key: Key, value: Value) -> None:
        """Route one emitted record to its partition and append it."""
        memo = self._memo
        if memo is None or type(key) is not str:
            partition = self._partition_fn(key, self.num_partitions)
        else:
            partition = memo.get(key)
            if partition is None:
                partition = self._partition_fn(key, self.num_partitions)
                if len(memo) < PARTITION_MEMO_KEYS:
                    memo[key] = partition
        # ``add``, written out: a call per record is what it would cost.
        keys = self._keys[partition]
        keys.append(key)
        self._values[partition].append(value)
        if len(keys) >= self._max_records:
            self._cut(partition, final=False)

    def add(self, partition: int, key: Key, value: Value) -> None:
        """Append one record to a partition already chosen for it."""
        keys = self._keys[partition]
        keys.append(key)
        self._values[partition].append(value)
        if len(keys) >= self._max_records:
            self._cut(partition, final=False)

    def _cut(self, partition: int, final: bool) -> None:
        keys = self._keys[partition]
        values = self._values[partition]
        used = cut_frames(keys, values, self._wire, self._sealed[partition], final)
        del keys[:used]
        del values[:used]

    def finish(self) -> dict[int, list[WireBatch]]:
        """Seal the open lists; ``{partition: [batch, ...]}``, all present."""
        for partition in range(self.num_partitions):
            self._cut(partition, final=True)
        return dict(enumerate(self._sealed))
