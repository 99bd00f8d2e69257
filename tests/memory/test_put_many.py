"""``put_many`` is ``put`` per entry, in order, paid per batch.

The batch write-back hands each flush to a store whose class has
``put_many`` in one call.  Whatever a store does inside it — a C-level
charge of the batch, one ``dict.update`` for the entries below the spill
threshold or heap limit, ``put`` for the entry that crosses it — it must
leave exactly the state the per-entry calls would: items, footprint,
peak, every ``on_sample`` value, spill points, spilled entries, run
bytes, what stays checked out, and the entry at which the heap limit
raises.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import ReducerOutOfMemoryError
from repro.memory.estimator import entry_size, entry_sizes
from repro.memory.spill import SpillMergeStore
from repro.memory.store import TreeMapStore


def pair(older, newer):
    return (older, newer)


_keys = st.text(alphabet="abcdef", min_size=1, max_size=3)
#: Flat values of many sizes (so replacements shrink as well as grow)
#: and tuples, which take the deep-size path.
_values = st.one_of(
    st.integers(-(2**70), 2**70),
    st.text(max_size=60),
    st.tuples(st.integers(0, 9), st.text(max_size=8)),
)
#: Each batch: the keys read (checked out, in the spill store) before
#: it is written, then the batch itself.
_batches = st.lists(
    st.tuples(st.lists(_keys, max_size=6), st.dictionaries(_keys, _values, max_size=30)),
    max_size=8,
)


def _apply(store, batches, batched: bool):
    """Feed ``batches`` one way; the OOM raised, if any, ends the feed."""
    try:
        for reads, batch in batches:
            for key in reads:
                store.get(key)
            if batched:
                store.put_many(batch)
            else:
                for key, value in batch.items():
                    store.put(key, value)
    except ReducerOutOfMemoryError as exc:
        return (exc.used_bytes, exc.limit_bytes)
    return None


def _runs(store) -> list[bytes]:
    runs = []
    for path in store._spill_paths:
        with open(path, "rb") as fh:
            runs.append(fh.read())
    return runs


@settings(max_examples=120, deadline=None)
@given(
    batches=_batches,
    threshold=st.sampled_from([1, 300, 1_000, 3_000, 1 << 30]),
)
def test_spill_merge_put_many_equals_put_per_entry(batches, threshold):
    samples: dict[bool, list[int]] = {True: [], False: []}
    stores = {
        batched: SpillMergeStore(
            pair,
            spill_threshold_bytes=threshold,
            on_sample=samples[batched].append,
        )
        for batched in (True, False)
    }
    try:
        seen = {}
        for batched, store in stores.items():
            _apply(store, batches, batched)
            seen[batched] = (
                store.memory_used(),
                store.peak_memory,
                store.spill_count,
                store.spilled_entries,
                store.spill_bytes_written,
                store.compactions,
                _runs(store),
                sorted(store._buffer.items()),
                sorted(store._checked_out),
            )
            store.finalize()
            seen[batched] += (list(store.items()),)
        assert seen[True] == seen[False]
        assert samples[True] == samples[False]
    finally:
        for store in stores.values():
            store.close()


@settings(max_examples=120, deadline=None)
@given(
    batches=_batches,
    limit=st.sampled_from([None, 300, 1_000, 3_000]),
)
def test_treemap_put_many_equals_put_per_entry(batches, limit):
    samples: dict[bool, list[int]] = {True: [], False: []}
    seen = {}
    for batched in (True, False):
        store = TreeMapStore(
            heap_limit_bytes=limit, on_sample=samples[batched].append
        )
        raised = _apply(store, batches, batched)
        seen[batched] = (
            raised,
            store.memory_used(),
            store.peak_memory,
            list(store.items()),
        )
    assert seen[True] == seen[False]
    assert samples[True] == samples[False]


def test_a_heap_limit_crossed_mid_batch_raises_at_that_entry():
    samples = []
    store = TreeMapStore(heap_limit_bytes=1_000, on_sample=samples.append)
    batch = {f"key-{i:02d}": "v" * 20 for i in range(20)}
    with pytest.raises(ReducerOutOfMemoryError):
        store.put_many(batch)
    # The entries before the crossing went in; the crossing one too, as
    # ``put`` inserts before it checks; none after it.
    assert 0 < len(samples) < len(store) < len(batch)
    assert store.memory_used() > 1_000 >= max(samples)


def test_a_spill_inside_put_many_holds_back_what_was_read():
    """The crossing entry spills through ``put``, which keeps a read
    partial whose write is still to come in the buffer: spilling it
    would put its folds on disk and in the new value."""
    store = SpillMergeStore(lambda a, b: a + b, spill_threshold_bytes=1_000)
    store.put("k", 5)
    store.put("bystander", 1)
    store.put_many({"filler": "x" * 2_000, "k": store.get("k") + 1})
    assert store.num_spill_files == 2 and not store._checked_out
    store.finalize()
    merged = dict(store.items())
    assert merged["k"] == 6 and merged["bystander"] == 1
    store.close()


class _Fat(str):
    def __sizeof__(self):
        return 10_000


_flat = st.one_of(
    st.integers(-(2**80), 2**80),
    st.text(max_size=20),
    st.floats(allow_nan=False),
    st.binary(max_size=20),
    st.booleans(),
    st.none(),
)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.one_of(
        st.lists(st.tuples(st.integers(-(2**80), 2**80), st.integers(0, 9))),
        st.lists(st.tuples(st.text(max_size=20), st.integers(0, 2**40))),
        st.lists(st.tuples(_flat, _flat)),
        st.lists(
            st.tuples(
                st.one_of(_flat, st.builds(_Fat, st.text(max_size=3))),
                st.one_of(_flat, st.tuples(st.integers(), st.text(max_size=3))),
            )
        ),
    )
)
def test_entry_sizes_is_entry_size_per_pair(pairs):
    keys = [key for key, _ in pairs]
    values = [value for _, value in pairs]
    assert entry_sizes(keys, values) == list(map(entry_size, keys, values))
