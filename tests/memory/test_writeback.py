"""Tests for the batch-scoped write-back in front of the stores.

The write-back must be invisible in the result — whatever store is
behind it, wherever the batch boundaries fall — while the store itself
sees one ``put`` per distinct key per batch, and sees it at the boundary.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partial import PartialResultStore
from repro.core.types import ReducerOutOfMemoryError
from repro.memory import WriteBackStore
from repro.memory.kvstore import SpillingKVStore
from repro.memory.spill import SpillMergeStore
from repro.memory.store import TreeMapStore


def add(a, b):
    return a + b


STORE_FACTORIES = {
    "treemap": lambda: TreeMapStore(),
    # Tiny limits: random streams spill / evict inside a single write-back.
    "spillmerge": lambda: SpillMergeStore(add, spill_threshold_bytes=300),
    "kvstore": lambda: SpillingKVStore(cache_bytes=256, write_buffer_bytes=128),
}

_keys = st.text(alphabet="abcdefgh", min_size=1, max_size=2)
#: ``fold`` is Algorithm 2's cycle (contains, maybe put(0), get, put);
#: ``peek`` reads without writing; ``cut`` is a batch boundary.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("fold"), _keys, st.integers(-50, 50)),
        st.tuples(st.just("peek"), _keys, st.just(0)),
        st.tuples(st.just("cut"), st.just(""), st.just(0)),
    ),
    max_size=120,
)


def _apply(store, ops, cut) -> None:
    for op, key, value in ops:
        if op == "cut":
            cut()
        elif op == "peek":
            if store.contains(key):
                store.get(key)
        else:
            if not store.contains(key):
                store.put(key, 0)
            store.put(key, store.get(key) + value)


def _drain(store) -> list:
    store.finalize()
    return list(store.items())


def _close(store) -> None:
    close = getattr(store, "close", None)
    if close is not None:
        close()


@pytest.mark.parametrize("kind", sorted(STORE_FACTORIES))
@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_write_back_is_invisible_in_items_and_checkpoints(kind, ops):
    plain = STORE_FACTORIES[kind]()
    backed = WriteBackStore(STORE_FACTORIES[kind]())
    restored = STORE_FACTORIES[kind]()
    try:
        _apply(plain, ops, cut=lambda: None)
        _apply(backed, ops, cut=backed.flush)
        with tempfile.TemporaryDirectory() as directory:
            # Cut mid-batch on purpose: checkpoint() writes back first.
            backed.checkpoint(directory, meta={"n": len(ops)})
            assert restored.restore(directory) == {"n": len(ops)}
        expected = _drain(plain)
        assert _drain(backed) == expected
        assert _drain(restored) == expected
    finally:
        for store in (plain, backed, restored):
            _close(store)


def test_satisfies_the_store_protocol_and_forwards_extras():
    backed = WriteBackStore(TreeMapStore())
    assert isinstance(backed, PartialResultStore)
    backed.put("k", "v" * 100)
    assert backed.peak_memory == 0  # nothing written back yet
    backed.flush()
    assert backed.peak_memory == backed.memory_used() > 100
    assert len(backed) == 1


def test_reads_and_writes_stay_in_the_batch_until_the_boundary():
    inner = TreeMapStore()
    inner.put("old", 1)
    backed = WriteBackStore(inner)
    assert backed.contains("old") and not backed.contains("new")
    assert backed.get("new", "dflt") == "dflt"
    backed.put("new", 10)
    backed.put("old", backed.get("old") + 1)
    assert backed.contains("new") and backed.get("new") == 10
    assert dict(inner.items()) == {"old": 1}  # the store has seen nothing
    backed.flush()
    assert dict(inner.items()) == {"new": 10, "old": 2}
    # The dict is batch-scoped: after the boundary reads go through again.
    inner.put("old", 99)
    assert backed.get("old") == 99


def test_clean_reads_are_not_written_back():
    puts = []

    class Spy(TreeMapStore):
        def put(self, key, value):
            puts.append(key)
            super().put(key, value)

    inner = Spy()
    inner.put("seen", 1)
    inner.put("untouched", 1)
    del puts[:]
    backed = WriteBackStore(inner)
    backed.get("untouched")
    for _ in range(5):
        backed.put("seen", backed.get("seen") + 1)
    backed.flush()
    assert puts == ["seen"]
    assert inner.get("seen") == 6


def test_contains_reads_through_once_for_the_get_that_follows():
    """Algorithm 2 asks ``contains`` then ``get``: one store descent."""
    calls = []

    class Spy(TreeMapStore):
        def contains(self, key):
            calls.append(("contains", key))
            return super().contains(key)

        def get(self, key, default=None):
            calls.append(("get", key))
            return super().get(key, default)

    inner = Spy()
    inner.put("seen", None)  # a stored None is still present
    backed = WriteBackStore(inner)
    assert backed.contains("seen") and backed.get("seen", "dflt") is None
    assert not backed.contains("new") and backed.get("new", "dflt") == "dflt"
    # Hit: one read serves both calls.  Miss: nothing to cache, so the
    # ``get`` asks again — and ``inner.contains`` is never needed.
    assert calls == [("get", "seen"), ("get", "new"), ("get", "new")]
    backed.put("new", 0)
    assert backed.contains("new") and len(calls) == 3
    backed.flush()
    assert dict(inner.items()) == {"new": 0, "seen": None}  # clean read stayed clean


def test_heap_limit_and_samples_fire_at_the_write_back():
    # The heap model lives in the store, so it now trips when the batch
    # is written back — at most one batch after the put that crossed it —
    # and on_sample sees one sample per write-back, not one per put.
    samples = []
    backed = WriteBackStore(
        TreeMapStore(heap_limit_bytes=600, on_sample=samples.append)
    )
    for i in range(50):
        backed.put(f"key-{i}", "payload" * 4)  # far past 600 B; no raise
    assert samples == []
    with pytest.raises(ReducerOutOfMemoryError) as caught:
        backed.flush()
    assert caught.value.used_bytes > 600
    assert 0 < len(samples) < 50 and max(samples) <= 600


def test_spill_in_the_middle_of_one_write_back_does_not_double_count():
    """Regression for the checked-out rule of :class:`SpillMergeStore`.

    Batch 2 reads ``hot``'s partial from the buffer, folds into it, and
    also brings enough new keys that writing *them* back spills the
    buffer before ``hot``'s own write-back lands.  Spilling the partial
    that was read would leave its folds both on disk and in the new
    value, and the merge would add them twice.
    """
    inner = SpillMergeStore(add, spill_threshold_bytes=2_000)
    backed = WriteBackStore(inner)
    backed.put("hot", 7)
    backed.flush()
    assert inner.num_spill_files == 0

    for i in range(40):  # first touched, so written back first
        backed.put(f"new-{i:02d}", 1)
    backed.put("hot", backed.get("hot") + 1)
    backed.flush()
    assert inner.num_spill_files >= 1  # the spill fell inside that flush
    backed.finalize()
    merged = dict(backed.items())
    assert merged["hot"] == 8
    assert sum(merged.values()) == 48
    inner.close()


def test_reads_never_written_back_are_released_at_the_batch_boundary():
    """Regression: ``contains`` reads through with ``get``, which checks
    the entry out of the spill-merge store; only a ``put`` used to check
    it back in.  120 membership tests that wrote nothing pinned 17,880 B
    of a 20,000 B threshold for the rest of the task, and the next 2,000
    puts cut 142 runs of ~15 entries instead of 15 runs of ~140."""
    inner = SpillMergeStore(add, spill_threshold_bytes=20_000)
    backed = WriteBackStore(inner)
    for i in range(120):
        backed.put(f"seen-{i:03d}", 1)
    backed.flush()
    pinned = inner.memory_used()
    assert 17_000 < pinned < 20_000 and inner.num_spill_files == 0

    assert all(backed.contains(f"seen-{i:03d}") for i in range(120))
    backed.flush()  # the batch that only looked ends here

    for i in range(2_000):
        backed.put(f"new-{i:04d}", 1)
        if i % 100 == 99:
            backed.flush()
    assert inner.spill_count <= 2_120 * 149 // 20_000 + 1  # 16: data / threshold
    backed.finalize()
    merged = dict(backed.items())
    assert len(merged) == 2_120 and sum(merged.values()) == 2_120
    inner.close()


def test_check_in_waits_for_the_dirty_write_backs():
    """The release comes *after* the write-backs: a spill in the middle
    of a flush must still hold back a partial whose put is yet to come,
    and a clean read in the same batch is released with the rest."""
    inner = SpillMergeStore(add, spill_threshold_bytes=2_000)
    backed = WriteBackStore(inner)
    backed.put("hot", 7)
    backed.put("cold", 1)
    backed.flush()

    assert backed.get("cold") == 1  # clean: read, never written
    for i in range(40):
        backed.put(f"new-{i:02d}", 1)
    backed.put("hot", backed.get("hot") + 1)
    backed.flush()
    assert inner.num_spill_files >= 1 and not inner._checked_out
    backed.finalize()
    merged = dict(backed.items())
    assert merged["hot"] == 8 and merged["cold"] == 1
    assert sum(merged.values()) == 49
    inner.close()
