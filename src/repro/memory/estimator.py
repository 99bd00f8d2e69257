"""Heap-footprint estimation for partial-result stores.

The spill decision in §5.1 relies on "an estimate of memory usage"; the OOM
fault model of Figure 5(a) needs the same estimate.  We approximate the
footprint a Java reducer would see: per-entry object overhead plus the deep
size of keys and values.  Absolute bytes are unimportant (we never compare
against real RSS); what matters is that the estimate grows linearly in
entries and in value payload so thresholds behave like the paper's.
"""

from __future__ import annotations

import sys
from itertools import accumulate, compress, count, repeat
from operator import add, sub
from typing import Any, Callable, Iterator, Sequence

#: Fixed per-entry overhead charged by stores, approximating a TreeMap.Entry
#: (object header, three references, color bit, alignment) on a 64-bit JVM.
ENTRY_OVERHEAD_BYTES = 64


def shallow_size(obj: Any) -> int:
    """Best-effort shallow size in bytes of one object."""
    try:
        return sys.getsizeof(obj)
    except TypeError:  # objects with broken __sizeof__
        return 64


def deep_size(obj: Any, _depth: int = 0) -> int:
    """Recursive size estimate covering the containers stores actually hold.

    Handles str/bytes/int/float directly, tuples/lists/sets/dicts one level
    deep per recursion (bounded at depth 8 to defend against pathological
    nesting), and falls back to shallow size elsewhere.  Shared references
    are double-counted deliberately: the Java stores the paper measures copy
    boxed values per entry, so double-counting matches their accounting.
    """
    if _depth > 8:
        return shallow_size(obj)
    if obj is None or isinstance(obj, (bool, int, float, complex)):
        return shallow_size(obj)
    if isinstance(obj, (str, bytes, bytearray)):
        return shallow_size(obj)
    if isinstance(obj, (tuple, list, set, frozenset)):
        return shallow_size(obj) + sum(deep_size(item, _depth + 1) for item in obj)
    if isinstance(obj, dict):
        return shallow_size(obj) + sum(
            deep_size(k, _depth + 1) + deep_size(v, _depth + 1)
            for k, v in obj.items()
        )
    return shallow_size(obj)


#: Exact types :func:`deep_size` sizes with one ``sys.getsizeof`` and no
#: recursion.  Subclasses are excluded on purpose: a ``str`` subclass may
#: define ``__sizeof__`` and must keep going through ``shallow_size``.
FLAT_TYPES = frozenset(
    (type(None), bool, int, float, complex, str, bytes, bytearray)
)


def entry_size(key: Any, value: Any) -> int:
    """Estimated heap cost of storing one (key, value) partial result.

    Always ``ENTRY_OVERHEAD_BYTES + deep_size(key) + deep_size(value)``;
    flat scalars — nearly every key and most aggregation partials — take
    a shortcut to the same number, so spill points do not move.
    :meth:`SpillMergeStore.put <repro.memory.spill.SpillMergeStore.put>`
    writes this expression out in line; ``tests/memory/test_spill.py``
    pins the two to each other.  :func:`entry_sizes` is the same charge
    for a whole batch.
    """
    getsizeof = sys.getsizeof
    return (
        ENTRY_OVERHEAD_BYTES
        + (getsizeof(key) if type(key) in FLAT_TYPES else deep_size(key))
        + (getsizeof(value) if type(value) in FLAT_TYPES else deep_size(value))
    )


def _flat_sizes(items: Sequence[Any]) -> Iterator[int] | None:
    """``map(sys.getsizeof, items)`` when every item is of a
    :data:`FLAT_TYPES` type, else ``None``.

    None of those types is tracked by the garbage collector, so
    ``getsizeof`` adds no header and equals ``type(item).__sizeof__``.
    A column of one type — every key of a ``sort`` or ``wc`` batch —
    calls that slot directly, which skips ``getsizeof``'s special-method
    lookup, about two thirds of the sizing cost of such a column
    (EXPERIMENTS.md "Issue 43").
    """
    kinds = set(map(type, items))
    if not kinds <= FLAT_TYPES:
        return None
    if len(kinds) == 1:
        return map(kinds.pop().__sizeof__, items)
    return map(sys.getsizeof, items)


def entry_sizes(keys: Sequence[Any], values: Sequence[Any]) -> list[int]:
    """:func:`entry_size` of each ``(keys[i], values[i])``.

    When every key and value is of a :data:`FLAT_TYPES` type — a batch
    of ``sort`` or ``wc`` partials — the sizes come from C-level passes,
    with no Python frame per entry.
    """
    key_sizes = _flat_sizes(keys)
    value_sizes = _flat_sizes(values) if key_sizes is not None else None
    if value_sizes is None:
        return list(map(entry_size, keys, values))
    return list(
        map(ENTRY_OVERHEAD_BYTES.__add__, map(add, key_sizes, value_sizes))
    )


class MemoryTracker:
    """Incremental footprint accounting for a keyed store.

    Stores call :meth:`charge`/:meth:`discharge` as entries are added,
    replaced and removed; :attr:`used` is the running total and
    :attr:`peak` the high-water mark (the quantity plotted in Figure 5).
    """

    def __init__(self) -> None:
        self.used = 0
        self.peak = 0

    def charge(self, amount: int) -> None:
        """Account for ``amount`` additional bytes."""
        self.used += amount
        if self.used > self.peak:
            self.peak = self.used

    def discharge(self, amount: int) -> None:
        """Release ``amount`` bytes (floored at zero against drift)."""
        self.used = max(0, self.used - amount)

    def reset(self) -> None:
        """Zero the running total (peak is preserved)."""
        self.used = 0

    def admit(
        self,
        entries: dict,
        sizes: dict,
        keys: Sequence[Any],
        values: Sequence[Any],
        costs: Sequence[int],
        crosses: Callable[[int], bool] | None = None,
        on_sample: Callable[[int], None] | None = None,
    ) -> int:
        """Write the longest prefix of a batch that stays clear of a limit.

        Entry ``i`` (``keys`` distinct) goes into ``entries`` charged
        ``costs[i]``, replacing the ``sizes`` charge of its key, exactly
        as a store's ``put`` charges it; the batch stops before the first
        entry whose footprint after writing satisfies ``crosses``, which
        is left to the caller with everything after it.  Returns how many
        entries were written.  One ``dict.update`` per map and C-level
        passes, no Python frame per entry; ``on_sample`` sees the
        footprint after each entry written.
        """
        after = list(
            accumulate(
                map(sub, costs, map(sizes.get, keys, repeat(0))), initial=self.used
            )
        )
        del after[0]
        fits = len(after)
        if crosses is not None:
            fits = next(compress(count(), map(crosses, after)), fits)
        if fits:
            entries.update(zip(keys[:fits], values[:fits]))
            sizes.update(zip(keys[:fits], costs[:fits]))
            taken = after[:fits]
            self.used = taken[-1]
            self.peak = max(self.peak, max(taken))
            if on_sample is not None:
                for used in taken:
                    on_sample(used)
        return fits
