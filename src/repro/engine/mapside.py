"""Map-side output: every engine's map output, sealed as it is emitted.

Hadoop mappers serialise each record with its partition number the
moment it is collected.  :class:`MapOutputCollector` is that step for
every real engine: partition each emitted record, append its raw key and
value to that partition's open lists, and cut wire frames (typed
encoding + optional zlib + CRC) as the lists fill, with no record list
in between.

A ``wire`` argument of ``None`` means ``WireConfig()``: every batch this
module returns is a sealed :class:`~repro.dfs.wire.WireBatch`.  Map
output is kept in emission order per partition; the barrier path sorts
it on the reduce side.
"""

from __future__ import annotations

from repro.core.types import Key, PartitionFunction, Value, default_partition
from repro.dfs.wire import WireBatch, WireConfig, cut_frames

#: Most exact-``str`` keys whose partition one collector remembers.
PARTITION_MEMO_KEYS = 4096


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
