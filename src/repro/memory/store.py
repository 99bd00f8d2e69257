"""In-memory partial-result store (the Figure 5(a) baseline).

``TreeMapStore`` keeps every partial result in a red-black tree on the
heap.  It tracks an estimated footprint and, when configured with a heap
limit, reproduces the paper's failure mode: the store raises
:class:`ReducerOutOfMemoryError` once the estimate exceeds the limit,
killing the job exactly as Hadoop's JVM OutOfMemoryError did at 80 seconds
in Figure 5(a).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.core.types import Key, ReducerOutOfMemoryError, Value
from repro.memory.checkpoint import (
    CheckpointStats,
    read_checkpoint,
    write_checkpoint,
)
from repro.memory.estimator import MemoryTracker, entry_size
from repro.memory.treemap import TreeMap


class TreeMapStore:
    """Partial-result store holding everything in a red-black tree.

    Implements :class:`repro.core.partial.PartialResultStore`.  A
    ``heap_limit_bytes`` of ``None`` disables the OOM model (tests that only
    care about semantics use that).  ``on_sample`` is an optional callback
    ``(used_bytes) -> None`` invoked after every mutation, which the
    analysis layer uses to collect heap traces.
    """

    def __init__(
        self,
        heap_limit_bytes: int | None = None,
        on_sample: Callable[[int], None] | None = None,
    ) -> None:
        self._tree = TreeMap()
        self._tracker = MemoryTracker()
        self._sizes: dict[Key, int] = {}  # charged bytes, for replace accounting
        self._heap_limit = heap_limit_bytes
        self._on_sample = on_sample

    # -- PartialResultStore protocol ----------------------------------------

    def get(self, key: Key, default: Value = None) -> Value:
        return self._tree.get(key, default)

    def put(self, key: Key, value: Value) -> None:
        new_cost = entry_size(key, value)
        old_cost = self._sizes.get(key, 0)
        self._tree.put(key, value)
        self._sizes[key] = new_cost
        if new_cost >= old_cost:
            self._tracker.charge(new_cost - old_cost)
        else:
            self._tracker.discharge(old_cost - new_cost)
        self._check_heap()
        if self._on_sample is not None:
            self._on_sample(self._tracker.used)

    def contains(self, key: Key) -> bool:
        return key in self._tree

    def items(self) -> Iterator[tuple[Key, Value]]:
        return self._tree.items()

    def finalize(self) -> None:
        """Nothing to merge: everything already lives in memory."""

    def memory_used(self) -> int:
        return self._tracker.used

    def __len__(self) -> int:
        return len(self._tree)

    # -- extras ----------------------------------------------------------------

    @property
    def peak_memory(self) -> int:
        """High-water mark of the footprint estimate (Figure 5 y-axis)."""
        return self._tracker.peak

    def remove(self, key: Key) -> bool:
        """Drop a key (used by window-style reducers retiring results)."""
        if not self._tree.remove(key):
            return False
        self._tracker.discharge(self._sizes.pop(key, 0))
        if self._on_sample is not None:
            self._on_sample(self._tracker.used)
        return True

    def pop_first(self) -> tuple[Key, Value]:
        """Remove and return the smallest-key entry (spill drain order)."""
        key, value = self._tree.pop_first()
        self._tracker.discharge(self._sizes.pop(key, 0))
        return key, value

    def checkpoint(
        self, directory: str, *, meta: dict[str, Any] | None = None
    ) -> CheckpointStats:
        """Atomically snapshot every entry (see :mod:`repro.memory.checkpoint`)."""
        return write_checkpoint(directory, self._tree.items(), meta=meta)

    def restore(self, directory: str) -> dict[str, Any]:
        """Load a verified snapshot into this (fresh) store; returns its meta.

        Entries pass through :meth:`put`, so footprint accounting and the
        heap-limit model see restored state exactly like folded state.
        """
        meta, entries = read_checkpoint(directory)
        for key, value in entries:
            self.put(key, value)
        return meta

    def _check_heap(self) -> None:
        if self._heap_limit is not None and self._tracker.used > self._heap_limit:
            raise ReducerOutOfMemoryError(self._tracker.used, self._heap_limit)
