"""Batch-scoped write-back in front of a partial-result store.

A barrier-less reducer touches its store three or four times per record
(``contains``, an initial ``put``, ``get``, ``put``), and every real
``put`` pays a size estimate plus the store's own insert (a red-black
descent in :class:`~repro.memory.store.TreeMapStore`).  Records
arrive in wire batches, and inside one batch keys repeat — so, following
the in-node combiner of Lee et al. (PAPERS.md: absorb repeats in a
process-local hash map before touching the expensive structure),
:class:`WriteBackStore` answers a batch's reads and writes from a plain
dict and writes each dirty key back *once*, through the store's ordinary
``put``, when the engine calls :meth:`~WriteBackStore.flush` at the batch
boundary.  The ordered store behind it is unchanged and still decides
ordering, spilling and the heap model; it just sees one operation per
distinct key per batch.

Application code does not change: the write-back implements the same
:class:`~repro.core.partial.PartialResultStore` protocol and
:func:`repro.engine.base.prepare_reducer` puts it in front of whichever
store a barrier-less job uses.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.types import Key, Value

_MISSING = object()


def innermost_store(store: Any) -> Any:
    """Unwrap write-back, locking and ``store_factory`` proxies.

    Every wrapper in the repo (and stagebench's timing proxy) holds the
    store it wraps as ``_inner``; the concrete store has no such field.
    """
    while True:
        inner = getattr(store, "_inner", None)
        if inner is None:
            return store
        store = inner


class WriteBackStore:
    """Dict-backed write-back over any :class:`PartialResultStore`.

    Between two flushes the dict holds every key the batch has read or
    written; entries read through from the store are *clean*, entries
    written are *dirty*.  :meth:`flush` writes the dirty ones back in
    first-touch order (deterministic, so spill points repeat run to run)
    and empties the dict, so its footprint is bounded by one batch and
    the store's own accounting (``memory_used``, ``on_sample``, the heap
    limit) lags the reducer by at most one batch.  A store that tracks
    what it has handed out (``check_in``, see
    :class:`~repro.memory.spill.SpillMergeStore`) is then told the batch
    is over, so a read that was never written back stops holding its
    entry.

    Everything that must see a consistent store — ``items``,
    ``finalize``, ``checkpoint`` — flushes first; ``len`` and
    ``memory_used`` may be read from other threads (gauges) and so just
    report the store as of the last flush.  Attributes the
    protocol does not name (``restore``, ``peak_memory``, ``close``,
    ``spill_count`` …) are forwarded to the wrapped store.
    """

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self._cache: dict[Key, Value] = {}
        self._dirty: set[Key] = set()
        self._check_in = getattr(inner, "check_in", None)

    # -- PartialResultStore protocol ----------------------------------------

    def contains(self, key: Key) -> bool:
        # A miss reads through, not ``inner.contains``: the reducer's
        # next call is ``get`` for the same key, and one lookup in the
        # store can serve both.
        return key in self._cache or self.get(key, _MISSING) is not _MISSING

    def get(self, key: Key, default: Value = None) -> Value:
        try:
            return self._cache[key]
        except KeyError:
            pass
        value = self._inner.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._cache[key] = value
        return value

    def put(self, key: Key, value: Value) -> None:
        self._cache[key] = value
        self._dirty.add(key)

    def items(self) -> Iterator[tuple[Key, Value]]:
        self.flush()
        return self._inner.items()

    def finalize(self) -> None:
        self.flush()
        self._inner.finalize()

    def memory_used(self) -> int:
        return self._inner.memory_used()

    def __len__(self) -> int:
        return len(self._inner)

    # -- the batch boundary ---------------------------------------------------

    def flush(self) -> None:
        """Write every dirty key back once and forget the batch."""
        cache = self._cache
        if not cache:
            return
        dirty = self._dirty
        put = self._inner.put
        for key, value in cache.items():
            if key in dirty:
                put(key, value)
        # After the write-backs: a spill inside the loop above must still
        # hold back the partials whose own write-back was yet to come.
        if self._check_in is not None:
            self._check_in()
        cache.clear()
        dirty.clear()

    # -- snapshots ----------------------------------------------------------------

    def checkpoint(self, directory: str, *, meta: dict[str, Any] | None = None):
        self.flush()
        return self._inner.checkpoint(directory, meta=meta)

    def __getattr__(self, name: str) -> Any:
        if name == "_inner":  # not yet constructed (copy, unpickle)
            raise AttributeError(name)
        return getattr(self._inner, name)
