"""Job specification binding user code to an execution configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.api import Combiner, Mapper, Reducer
from repro.core.partial import MergeFunction, StoreFactory
from repro.core.types import (
    ExecutionMode,
    InvalidJobError,
    Key,
    PartitionFunction,
    ReduceClass,
    Value,
    default_partition,
)


@dataclass(slots=True)
class MemoryConfig:
    """Reducer-side memory management configuration (§5).

    ``store`` picks the partial-result technique:

    - ``"inmemory"`` — every partial held on the heap in a hash table,
      sorted once for the final sweep (Figure 5(a); can OOM).
    - ``"spillmerge"`` — disk spill and merge (§5.1, Figure 5(b)): an
      unordered buffer sorted into a run file at each spill, runs merged
      with ``merge_fn`` at the end.
    - ``"kvstore"`` — disk-spilling key/value store, the BerkeleyDB
      stand-in (§5.2).

    ``heap_limit_bytes`` models the JVM max heap; a store whose estimated
    footprint exceeds it raises :class:`ReducerOutOfMemoryError`.
    ``spill_threshold_bytes`` is the partial-results threshold at which the
    spill-and-merge store writes a run file (240 MB in Figure 5(b), scaled
    down in our experiments).
    """

    store: str = "inmemory"
    heap_limit_bytes: int | None = None
    spill_threshold_bytes: int | None = None
    kv_cache_bytes: int | None = None
    spill_dir: str | None = None

    def validate(self) -> None:
        if self.store not in {"inmemory", "spillmerge", "kvstore"}:
            raise InvalidJobError(f"unknown store kind: {self.store!r}")
        for name in ("heap_limit_bytes", "spill_threshold_bytes", "kv_cache_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise InvalidJobError(f"{name} must be positive, got {value}")


@dataclass(slots=True)
class JobSpec:
    """Everything an engine needs to execute one MapReduce job.

    ``mapper_factory``/``reducer_factory`` are zero-argument callables so
    that each task gets a fresh, isolated instance (mappers and reducers are
    stateful objects).  ``mode`` selects barrier vs barrier-less shuffle;
    ``merge_fn`` is required by the spill-and-merge store and is
    functionally the combiner (§5.1).
    """

    name: str
    mapper_factory: Callable[[], Mapper]
    reducer_factory: Callable[[], Reducer]
    num_reducers: int = 1
    mode: ExecutionMode = ExecutionMode.BARRIER
    combiner_factory: Callable[[], Combiner] | None = None
    partition_fn: PartitionFunction = default_partition
    reduce_class: ReduceClass | None = None
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    merge_fn: MergeFunction | None = None
    store_factory: StoreFactory | None = None
    #: Secondary sort (barrier mode only): orders each key group's values
    #: by this key before the reduce call, the way Hadoop's sort/grouping
    #: comparator pair delivers value-ordered groups (used by Selection
    #: operations, §4.4).  Ignored in barrier-less mode, where the whole
    #: point is that no sorting happens.
    value_sort_key: Callable[[Value], Any] | None = None

    def validate(self) -> None:
        """Raise :class:`InvalidJobError` on inconsistent configuration."""
        if self.num_reducers <= 0:
            raise InvalidJobError("num_reducers must be positive")
        if not callable(self.mapper_factory) or not callable(self.reducer_factory):
            raise InvalidJobError("mapper_factory and reducer_factory must be callable")
        self.memory.validate()
        if self.memory.store == "spillmerge" and self.merge_fn is None:
            raise InvalidJobError(
                "spill-and-merge storage requires a merge_fn (the combiner-like "
                "function used to merge partial results across spill files)"
            )



InputSplit = Sequence[tuple[Key, Value]]


def split_input(
    pairs: Sequence[tuple[Key, Value]], num_splits: int
) -> list[list[tuple[Key, Value]]]:
    """Partition job input into contiguous splits, one per map task.

    Mirrors HDFS chunking: splits are contiguous ranges of the input, sized
    as evenly as possible.  ``num_splits`` may exceed ``len(pairs)``; empty
    splits are dropped so every map task has work.
    """
    if num_splits <= 0:
        raise InvalidJobError("num_splits must be positive")
    n = len(pairs)
    base, extra = divmod(n, num_splits)
    splits: list[list[tuple[Key, Value]]] = []
    start = 0
    for i in range(num_splits):
        size = base + (1 if i < extra else 0)
        if size == 0:
            continue
        splits.append(list(pairs[start : start + size]))
        start += size
    return splits
