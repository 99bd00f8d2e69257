"""In-memory partial-result store (the Figure 5(a) baseline).

``TreeMapStore`` keeps every partial result on the heap.  It tracks an
estimated footprint and, when configured with a heap limit, reproduces
the paper's failure mode: the store raises
:class:`ReducerOutOfMemoryError` once the estimate exceeds the limit,
killing the job exactly as Hadoop's JVM OutOfMemoryError did at 80 seconds
in Figure 5(a).

The paper's reducer holds its partials in a Java ``TreeMap``; this store
keeps the name and the key-ordered output but not the tree.  Partials
live in a hash table and are sorted once (a C timsort) where order is
consumed — :meth:`~TreeMapStore.items` and
:meth:`~TreeMapStore.checkpoint` — as
:class:`~repro.memory.spill.SpillMergeStore`'s buffer does.  A fold
touches a key far more often than the sweep reads it, so a red-black
descent per write-back bought nothing the one sort does not.  What
Figure 5(a) measures, the footprint estimate, is charged per entry
(:func:`~repro.memory.estimator.entry_size`) either way.

Barrier-less, the engines write a batch back with
:meth:`~TreeMapStore.put_many`: the batch is charged with C-level passes
and inserted with one ``dict.update`` up to the entry that would cross
the heap limit, which goes through ``put`` and raises there, exactly
where a ``put`` per entry would.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterator, Mapping

from repro.core.types import Key, ReducerOutOfMemoryError, Value
from repro.memory.checkpoint import (
    CheckpointStats,
    read_checkpoint,
    write_checkpoint,
)
from repro.memory.estimator import MemoryTracker, entry_size, entry_sizes

_KEY = itemgetter(0)


class TreeMapStore:
    """Partial-result store holding everything in memory, output in key order.

    Implements :class:`repro.core.partial.PartialResultStore`; ``get``
    and ``contains`` are the entry dict's own bound methods, set per
    instance (a subclass that wraps them does so in ``__init__``).  A
    ``heap_limit_bytes`` of ``None`` disables the OOM model (tests that only
    care about semantics use that).  ``on_sample`` is an optional callback
    ``(used_bytes) -> None`` invoked after every mutation, which the
    analysis layer uses to collect heap traces.

    Keys must be hashable and mutually comparable.  Nothing compares them
    until the sort, so keys that cannot be ordered (``1`` and ``"a"``)
    raise ``TypeError`` at :meth:`items` or :meth:`checkpoint`, not at
    the ``put`` that brought them in; the task fails either way.
    """

    def __init__(
        self,
        heap_limit_bytes: int | None = None,
        on_sample: Callable[[int], None] | None = None,
    ) -> None:
        self._entries: dict[Key, Value] = {}
        self._tracker = MemoryTracker()
        self._sizes: dict[Key, int] = {}  # charged bytes, for replace accounting
        self._heap_limit = heap_limit_bytes
        self._on_sample = on_sample
        self.get = self._entries.get
        self.contains = self._entries.__contains__

    # -- PartialResultStore protocol ----------------------------------------

    def put(self, key: Key, value: Value) -> None:
        new_cost = entry_size(key, value)
        old_cost = self._sizes.get(key, 0)
        self._entries[key] = value
        self._sizes[key] = new_cost
        if new_cost >= old_cost:
            self._tracker.charge(new_cost - old_cost)
        else:
            self._tracker.discharge(old_cost - new_cost)
        self._check_heap()
        if self._on_sample is not None:
            self._on_sample(self._tracker.used)

    def put_many(self, entries: Mapping[Key, Value]) -> None:
        """:meth:`put` every entry, in order, in one call.

        Leaves exactly the state a ``put`` per entry would, raising
        :class:`ReducerOutOfMemoryError` at the same entry: the entries
        below the heap limit go in with one ``dict.update``, charged in
        C-level passes; from the entry that crosses it on, it is ``put``.
        """
        keys = list(entries)
        values = list(entries.values())
        limit = self._heap_limit
        fits = self._tracker.admit(
            self._entries, self._sizes, keys, values, entry_sizes(keys, values),
            None if limit is None else limit.__lt__, self._on_sample,
        )
        for key, value in zip(keys[fits:], values[fits:]):
            self.put(key, value)

    def items(self) -> Iterator[tuple[Key, Value]]:
        return iter(self._sorted())

    def finalize(self) -> None:
        """Nothing to merge: everything already lives in memory."""

    def memory_used(self) -> int:
        return self._tracker.used

    def __len__(self) -> int:
        return len(self._entries)

    # -- extras ----------------------------------------------------------------

    @property
    def peak_memory(self) -> int:
        """High-water mark of the footprint estimate (Figure 5 y-axis)."""
        return self._tracker.peak

    def checkpoint(
        self, directory: str, *, meta: dict[str, Any] | None = None
    ) -> CheckpointStats:
        """Atomically snapshot every entry (see :mod:`repro.memory.checkpoint`)."""
        return write_checkpoint(directory, self._sorted(), meta=meta)

    def restore(self, directory: str) -> dict[str, Any]:
        """Load a verified snapshot into this (fresh) store; returns its meta.

        Entries pass through :meth:`put`, so footprint accounting and the
        heap-limit model see restored state exactly like folded state.
        """
        meta, entries = read_checkpoint(directory)
        for key, value in entries:
            self.put(key, value)
        return meta

    def _sorted(self) -> list[tuple[Key, Value]]:
        """Every entry in ascending key order: one C sort."""
        return sorted(self._entries.items(), key=_KEY)

    def _check_heap(self) -> None:
        if self._heap_limit is not None and self._tracker.used > self._heap_limit:
            raise ReducerOutOfMemoryError(self._tracker.used, self._heap_limit)
