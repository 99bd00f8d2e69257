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
from typing import Any

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
_FLAT_TYPES = frozenset(
    (type(None), bool, int, float, complex, str, bytes, bytearray)
)


def entry_size(key: Any, value: Any) -> int:
    """Estimated heap cost of storing one (key, value) partial result.

    Always ``ENTRY_OVERHEAD_BYTES + deep_size(key) + deep_size(value)``;
    flat scalars — nearly every key and most aggregation partials — take
    a shortcut to the same number, so spill points do not move.
    """
    getsizeof = sys.getsizeof
    return (
        ENTRY_OVERHEAD_BYTES
        + (getsizeof(key) if type(key) in _FLAT_TYPES else deep_size(key))
        + (getsizeof(value) if type(value) in _FLAT_TYPES else deep_size(value))
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
