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
from typing import Iterator

from repro.core.types import Key, PartitionFunction, Record, Value
from repro.dfs.wire import (
    WireConfig,
    encode_record_batches,
    read_frames,
    write_batch,
)
from repro.memory.estimator import entry_size


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
        self._records.sort(key=lambda item: (item[0], item[1]))
        suffix = "wire" if self._wire is not None else "pkl"
        path = os.path.join(
            self._dir, f"map-spill-{self.spill_count:05d}.{suffix}"
        )
        self._spills.append(path)
        with open(path, "wb") as fh:
            if self._wire is not None:
                framed = [
                    Record((partition, key), value)
                    for partition, key, value in self._records
                ]
                for batch in encode_record_batches(framed, self._wire):
                    write_batch(fh, batch)
                    self.raw_bytes_spilled += batch.raw_bytes
                    self.wire_bytes_spilled += batch.wire_bytes
            else:
                for entry in self._records:
                    pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.spill_count += 1
        self.bytes_spilled += self._used
        self._records = []
        self._used = 0

    # -- read side ---------------------------------------------------------------

    @property
    def num_spills(self) -> int:
        """Spill files written so far."""
        return len(self._spills)

    def partition_records(self, partition: int) -> Iterator[Record]:
        """Stream one partition's records in ascending key order.

        Merges the sorted spill runs with the (sorted) residual buffer;
        ties across runs keep run order, which preserves per-mapper
        emission order within equal keys closely enough for combiner-less
        grouping.
        """
        if not 0 <= partition < self.num_partitions:
            raise ValueError(f"no partition {partition}")
        runs: list[Iterator[tuple[int, Key, Value]]] = [
            self._read_run(path) for path in self._spills
        ]
        residual = sorted(
            (entry for entry in self._records if entry[0] == partition),
            key=lambda item: item[1],
        )
        runs.append(iter(residual))
        filtered = [
            (entry for entry in run if entry[0] == partition) for run in runs
        ]
        merged = heapq.merge(*filtered, key=lambda entry: entry[1])
        for _partition, key, value in merged:
            yield Record(key, value)

    def all_partitions(self) -> dict[int, list[Record]]:
        """Materialise every partition (convenience for the engines)."""
        return {
            p: list(self.partition_records(p)) for p in range(self.num_partitions)
        }

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
