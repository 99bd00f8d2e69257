"""Partial-result store protocol for barrier-less reducers.

When the stage barrier is removed, a reducer no longer sees all values for a
key at once; it must keep a *partial result* per key and fold each incoming
record into it (§3.2 of the paper).  The store abstraction below is the seam
between the reduce logic and the memory-management techniques of §5: the
same reducer code runs against an in-memory store, a disk
spill-and-merge store, or a disk-spilling key/value store.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Protocol, runtime_checkable

from repro.core.types import Key, Value

#: Merge function combining two partial results for the same key.  This is
#: functionally the combiner of classic MapReduce (§5.1): it must be
#: commutative and associative for spill-and-merge to be correct.
MergeFunction = Callable[[Value, Value], Value]


@runtime_checkable
class PartialResultStore(Protocol):
    """Mutable mapping from key to partial result with ordered iteration.

    Contract required by the barrier-less runtime:

    - ``get``/``put`` implement the read-modify-update cycle of §5.2.
    - ``items()`` iterates in ascending key order, which lets barrier-less
      jobs emit sorted final output where the application requires it.
    - ``finalize()`` flushes any disk-resident state and returns the store
      to a fully-merged condition; it must be called before the final
      ``items()`` sweep.
    - ``memory_used()`` reports the store's current estimated heap
      footprint in bytes, which drives spill decisions and the OOM fault
      model of Figure 5.
    """

    def get(self, key: Key, default: Value = None) -> Value:
        """Return the partial result for ``key`` or ``default``."""
        ...

    def put(self, key: Key, value: Value) -> None:
        """Store (replace) the partial result for ``key``."""
        ...

    def contains(self, key: Key) -> bool:
        """True if a partial result exists for ``key``."""
        ...

    def items(self) -> Iterator[tuple[Key, Value]]:
        """Iterate ``(key, partial_result)`` in ascending key order."""
        ...

    def finalize(self) -> None:
        """Merge spilled state so that ``items()`` sees every key once."""
        ...

    def memory_used(self) -> int:
        """Estimated in-memory footprint in bytes."""
        ...

    def __len__(self) -> int:
        """Number of distinct keys currently stored (in memory + spilled)."""
        ...


#: Factory signature used by job specs: engines call it once per reduce task
#: so each reducer gets an isolated store instance.
StoreFactory = Callable[[], Any]
