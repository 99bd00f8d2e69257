"""Batch-scoped write-back in front of a partial-result store.

A barrier-less reducer touches its store three or four times per record
(``contains``, an initial ``put``, ``get``, ``put``), and every real
``put`` pays a size estimate plus the store's own bookkeeping (heap
accounting, spill checks, an LRU cache update).  Records arrive in wire
batches, and inside one batch keys repeat — so, following the in-node
combiner of Lee et al. (PAPERS.md: absorb repeats in a
process-local hash map before touching the expensive structure),
:class:`WriteBackStore` keeps a batch's writes in a plain dict and writes
each key back *once* when the engine calls
:meth:`~WriteBackStore.flush` at the batch boundary — in one
``put_many`` call to a store whose class has one, which leaves exactly
what a ``put`` per key would, and otherwise through ``put``.  Reads look
in that dict, then ask the store; nothing read is cached.  The store
behind it is unchanged and still decides ordering, spilling and the heap
model; it just sees one write per distinct key per batch.

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

    Between two flushes the dict holds every key the batch has written,
    newest value, in first-write order; ``put`` is that dict's own
    ``__setitem__``.  :meth:`flush` writes the entries back in that order
    (deterministic, so spill points repeat run to run) — with the
    store's ``put_many`` when its class defines one, so a proxy that
    forwards everything through ``__getattr__`` still sees every write
    as a ``put`` — and empties the dict, so its footprint is bounded by
    one batch and the store's own accounting (``memory_used``,
    ``on_sample``, the heap limit) lags the reducer by at most one
    batch.  A store that
    tracks what it has handed out (``check_in``, see
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
        self._dirty: dict[Key, Value] = {}
        self._check_in = getattr(inner, "check_in", None)
        self._inner_get = inner.get
        self._inner_contains = inner.contains
        self.put = self._dirty.__setitem__
        # Only a store whose class writes a batch in one call is handed
        # the batch; anything else, such as a proxy that times or counts
        # ``put``, sees one ``put`` per key.
        self._put_many = (
            inner.put_many if hasattr(type(inner), "put_many") else None
        )

    # -- PartialResultStore protocol ----------------------------------------

    def contains(self, key: Key) -> bool:
        return key in self._dirty or self._inner_contains(key)

    def get(self, key: Key, default: Value = None) -> Value:
        value = self._dirty.get(key, _MISSING)
        if value is _MISSING:
            return self._inner_get(key, default)
        return value

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
        """Write every key the batch wrote back once and forget the batch."""
        dirty = self._dirty
        if dirty:
            if self._put_many is not None:
                self._put_many(dirty)
            else:
                put = self._inner.put
                for key, value in dirty.items():
                    put(key, value)
            dirty.clear()
        # After the write-backs: a spill inside them must still hold back
        # the partials whose own write-back was yet to come.
        if self._check_in is not None:
            self._check_in()

    # -- snapshots ----------------------------------------------------------------

    def checkpoint(self, directory: str, *, meta: dict[str, Any] | None = None):
        self.flush()
        return self._inner.checkpoint(directory, meta=meta)

    def __getattr__(self, name: str) -> Any:
        if name == "_inner":  # not yet constructed (copy, unpickle)
            raise AttributeError(name)
        return getattr(self._inner, name)
