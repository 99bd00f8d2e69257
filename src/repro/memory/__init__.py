"""Memory-management substrate for barrier-less partial results (§5).

Three interchangeable :class:`~repro.core.partial.PartialResultStore`
implementations:

- :class:`TreeMapStore` — everything in a red-black tree on the heap
  (fast; can OOM — Figure 5(a)).
- :class:`SpillMergeStore` — disk spill and merge (§5.1, Figure 5(b)):
  a hash buffer sorted into a run each time it is cut, the runs merged
  at the end.
- :class:`SpillingKVStore` — LRU-cached log-backed KV store, the
  BerkeleyDB stand-in (§5.2).

:class:`WriteBackStore` is not a fourth technique but what the engines
put in front of any of the three in barrier-less mode: a dict that
absorbs one wire batch's reads and writes and writes each dirty key back
once at the batch boundary.

All three stores support atomic, CRC-verified ``checkpoint``/``restore``
(:mod:`repro.memory.checkpoint`) so a restarted reduce attempt can resume
from its last snapshot instead of refolding the partition from zero.

Plus the building blocks: :class:`TreeMap` (the red-black tree behind
:class:`TreeMapStore` and Figure 5(a); no other store keeps one), byte
estimation (:mod:`repro.memory.estimator`) and eviction policies
(:mod:`repro.memory.policies`).
"""

from repro.core.job import MemoryConfig
from repro.core.partial import MergeFunction
from repro.memory.checkpoint import (
    CheckpointError,
    CheckpointPolicy,
    CheckpointStats,
    checkpoint_exists,
    discard_checkpoint,
    peek_checkpoint_meta,
    read_checkpoint,
    write_checkpoint,
)
from repro.memory.estimator import (
    ENTRY_OVERHEAD_BYTES,
    MemoryTracker,
    deep_size,
    entry_size,
    shallow_size,
)
from repro.memory.kvstore import SpillingKVStore
from repro.memory.policies import FIFOCache, LRUCache
from repro.memory.spill import SpillMergeStore
from repro.memory.store import TreeMapStore
from repro.memory.treemap import TreeMap
from repro.memory.writeback import WriteBackStore, innermost_store

__all__ = [
    "ENTRY_OVERHEAD_BYTES",
    "CheckpointError",
    "CheckpointPolicy",
    "CheckpointStats",
    "FIFOCache",
    "LRUCache",
    "MemoryTracker",
    "SpillMergeStore",
    "SpillingKVStore",
    "TreeMap",
    "TreeMapStore",
    "WriteBackStore",
    "checkpoint_exists",
    "deep_size",
    "discard_checkpoint",
    "entry_size",
    "innermost_store",
    "make_store",
    "peek_checkpoint_meta",
    "read_checkpoint",
    "shallow_size",
    "write_checkpoint",
]


def make_store(
    config: MemoryConfig,
    merge_fn: MergeFunction | None = None,
    on_sample=None,
):
    """Build the partial-result store a :class:`MemoryConfig` describes.

    Engines call this once per reduce task.  ``merge_fn`` is required for
    the spill-and-merge technique; ``on_sample`` propagates heap-trace
    callbacks into whichever store is chosen.
    """
    if config.store == "inmemory":
        return TreeMapStore(
            heap_limit_bytes=config.heap_limit_bytes, on_sample=on_sample
        )
    if config.store == "spillmerge":
        if merge_fn is None:
            raise ValueError("spillmerge store requires a merge_fn")
        return SpillMergeStore(
            merge_fn=merge_fn,
            spill_threshold_bytes=config.spill_threshold_bytes or (1 << 20),
            spill_dir=config.spill_dir,
            on_sample=on_sample,
        )
    if config.store == "kvstore":
        return SpillingKVStore(
            cache_bytes=config.kv_cache_bytes or (1 << 20),
            dir_path=config.spill_dir,
            on_sample=on_sample,
        )
    raise ValueError(f"unknown store kind: {config.store!r}")
