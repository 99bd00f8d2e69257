"""Tests for the disk spill-and-merge store (§5.1)."""

from __future__ import annotations

import os
import resource

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.spill import MERGE_FAN_IN, SpillMergeStore
from repro.memory.store import TreeMapStore
from tests.fdutil import open_fd_count


def add(a, b):
    return a + b


class TestBasics:
    def test_small_data_never_spills(self):
        store = SpillMergeStore(add, spill_threshold_bytes=1 << 20)
        store.put("a", 1)
        store.put("b", 2)
        assert store.num_spill_files == 0
        store.finalize()
        assert list(store.items()) == [("a", 1), ("b", 2)]
        store.close()

    def test_spill_triggers_at_threshold(self):
        store = SpillMergeStore(add, spill_threshold_bytes=400)
        for i in range(50):
            store.put(f"key-{i:03d}", 1)
        assert store.num_spill_files > 0
        assert store.memory_used() < 400
        store.close()

    def test_put_after_finalize_raises(self):
        store = SpillMergeStore(add, spill_threshold_bytes=1 << 20)
        store.finalize()
        with pytest.raises(RuntimeError):
            store.put("a", 1)
        store.close()

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            SpillMergeStore(add, spill_threshold_bytes=0)

    def test_items_before_finalize_shows_buffer_only(self):
        store = SpillMergeStore(add, spill_threshold_bytes=1 << 20)
        store.put("z", 1)
        assert list(store.items()) == [("z", 1)]
        store.close()

    def test_get_sees_only_buffered_partials(self):
        # After a spill, get() starts fresh — the merge reconciles pieces.
        store = SpillMergeStore(add, spill_threshold_bytes=300)
        store.put("k", 10)
        for i in range(40):
            store.put(f"filler-{i:02d}", 1)  # force a spill
        assert store.num_spill_files >= 1
        assert store.get("k") is None  # spilled away
        store.put("k", 5)
        store.finalize()
        merged = dict(store.items())
        assert merged["k"] == 15  # 10 (spilled) + 5 (buffered)
        store.close()


class TestMergePhase:
    def test_merges_across_spill_files(self):
        store = SpillMergeStore(add, spill_threshold_bytes=350)
        for _round in range(5):
            for key in ("alpha", "beta", "gamma"):
                store.put(key, 1)
            for i in range(20):
                store.put(f"pad-{_round}-{i}", 1)
        assert store.num_spill_files >= 2
        store.finalize()
        merged = dict(store.items())
        assert merged["alpha"] == 5
        assert merged["beta"] == 5
        assert merged["gamma"] == 5
        store.close()

    def test_merged_output_is_key_sorted(self):
        store = SpillMergeStore(add, spill_threshold_bytes=300)
        for i in (9, 3, 7, 1, 5, 0, 8, 2, 6, 4) * 10:
            store.put(f"k{i}", 1)
        store.finalize()
        keys = [k for k, _ in store.items()]
        assert keys == sorted(keys)
        store.close()

    def test_spill_files_created_on_disk(self, tmp_path):
        store = SpillMergeStore(
            add, spill_threshold_bytes=300, spill_dir=str(tmp_path)
        )
        for i in range(60):
            store.put(f"key-{i:03d}", 1)
        # One directory per store under ``spill_dir``, runs inside it.
        files = list(tmp_path.glob("*/spill-*"))
        assert len(files) == store.num_spill_files > 0
        store.close()
        assert os.listdir(tmp_path) == []

    def test_len_counts_buffer_plus_spilled(self):
        store = SpillMergeStore(add, spill_threshold_bytes=300)
        for i in range(30):
            store.put(f"key-{i:03d}", 1)
        assert len(store) == 30  # upper bound; all keys distinct here
        store.close()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(-100, 100)),
        max_size=200,
    ),
    st.integers(min_value=200, max_value=5000),
)
def test_property_spillmerge_equals_inmemory(pairs, threshold):
    """The paper's correctness requirement: spilling must be transparent.

    Folding through a SpillMergeStore with any threshold must produce the
    same final (key, aggregate) mapping as the in-memory store.
    """
    spill = SpillMergeStore(add, spill_threshold_bytes=threshold)
    inmem = TreeMapStore()
    for key, value in pairs:
        for store in (spill, inmem):
            store.put(key, store.get(key, 0) + value)
    spill.finalize()
    inmem.finalize()
    assert list(spill.items()) == list(inmem.items())
    spill.close()


class TestReplacementDuringSpill:
    def test_stale_partial_not_double_counted(self):
        """Regression: a spill triggered by a *replacement* put must not
        write the superseded partial to the spill file — merging the old
        and new versions would double-count everything the old partial
        had already folded in."""
        store = SpillMergeStore(add, spill_threshold_bytes=10_000)
        # Grow one key's partial until its replacement put crosses the
        # threshold by itself.
        store.put("big", 0)
        total = 0
        for i in range(1, 300):
            current = store.get("big", 0)
            store.put("big", current + i)
            total += i
            if store.num_spill_files > 0:
                break
        # Force at least one spill via the big key even if not yet.
        big_value = store.get("big", 0)
        store.put("filler", "x" * 20_000)  # guarantees a spill afterwards
        store.put("big", store.get("big", 0) + 1_000_000)
        store.finalize()
        merged = dict(store.items())
        # The final value must be exactly the sum of all increments.
        assert merged["big"] == total + 1_000_000
        store.close()

    def test_checked_out_partial_is_held_back_from_a_spill(self):
        # get() hands a partial out; until that key's put() lands, another
        # key's put may spill the buffer.  The handed-out entry must stay
        # behind (it is about to be replaced), or the merge adds it twice.
        store = SpillMergeStore(add, spill_threshold_bytes=1_000)
        store.put("k", 5)
        store.put("bystander", 1)
        partial = store.get("k")
        store.put("filler", "x" * 2_000)  # spills everything it may
        assert store.num_spill_files == 1
        assert store.contains("k") and not store.contains("bystander")
        assert store.memory_used() > 0  # the held entry is still charged
        store.put("k", partial + 1)
        store.finalize()
        merged = dict(store.items())
        assert merged["k"] == 6 and merged["bystander"] == 1
        store.close()

    def test_fold_correct_under_tiny_threshold(self):
        # Every put spills: the stress case for replacement handling.
        store = SpillMergeStore(add, spill_threshold_bytes=1)
        for _round in range(10):
            for key in ("a", "b"):
                store.put(key, store.get(key, 0) + 1)
        store.finalize()
        assert dict(store.items()) == {"a": 10, "b": 10}
        store.close()


class TestWireFormatIntegrity:
    """Spill files are CRC-framed wire batches: defects fail loudly."""

    def _spilled(self, tmp_path):
        store = SpillMergeStore(
            add, spill_threshold_bytes=300, spill_dir=str(tmp_path)
        )
        for i in range(60):
            store.put(f"key-{i:03d}", i)
        assert store.num_spill_files >= 1
        return store

    def test_bit_flip_in_spill_file_raises(self, tmp_path):
        from repro.dfs.serialization import SerializationError

        store = self._spilled(tmp_path)
        path = store._spill_paths[0]
        with open(path, "r+b") as fh:
            data = bytearray(fh.read())
            data[len(data) // 2] ^= 0x10
            fh.seek(0)
            fh.write(data)
        store.finalize()
        with pytest.raises(SerializationError):
            dict(store.items())
        store.close()

    def test_truncated_spill_file_raises(self, tmp_path):
        from repro.dfs.serialization import SerializationError

        store = self._spilled(tmp_path)
        path = store._spill_paths[0]
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)
        store.finalize()
        with pytest.raises(SerializationError):
            dict(store.items())
        store.close()


class TestNoLeakedDescriptors:
    """The k-way merge must release every spill-file descriptor, even
    when the consumer abandons the stream mid-merge."""

    @staticmethod
    def _open_fds() -> int:
        return open_fd_count()

    def _spilled_store(self):
        store = SpillMergeStore(add, spill_threshold_bytes=300)
        for i in range(120):
            store.put(f"key-{i:03d}", 1)
        assert store.num_spill_files >= 2
        return store

    def test_full_merge_releases_descriptors(self):
        store = self._spilled_store()
        store.finalize()
        before = self._open_fds()
        dict(store.items())
        assert self._open_fds() == before
        store.close()

    def test_abandoned_merge_releases_descriptors(self):
        store = self._spilled_store()
        store.finalize()
        before = self._open_fds()
        stream = store.items()
        next(stream)  # readers now hold their descriptors
        stream.close()  # consumer walks away mid-merge
        assert self._open_fds() == before
        store.close()

    def test_exception_mid_merge_releases_descriptors(self):
        store = self._spilled_store()
        store.finalize()
        before = self._open_fds()
        with pytest.raises(RuntimeError):
            for index, _entry in enumerate(store.items()):
                if index == 3:
                    raise RuntimeError("consumer died")
        assert self._open_fds() == before
        store.close()


class TestBoundedMergeFanIn:
    """However many runs are cut, at most ``MERGE_FAN_IN`` are on disk."""

    @pytest.fixture
    def few_descriptors(self):
        """At most 128 more files may be opened by the test body."""
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        lowered = open_fd_count() + 128
        if soft != resource.RLIM_INFINITY and soft <= lowered:
            pytest.skip("RLIMIT_NOFILE is already this low")
        # The limit is on descriptor *numbers*; ours are packed low.
        resource.setrlimit(resource.RLIMIT_NOFILE, (lowered, hard))
        try:
            yield lowered
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))

    def test_thousand_runs_merge_under_a_low_descriptor_limit(
        self, few_descriptors
    ):
        """Regression: the merge used to open every run at once, so 999
        runs died with ``OSError(24)`` once the limit was in reach — at
        the final merge and at every periodic checkpoint before it."""
        assert MERGE_FAN_IN + 2 < 128
        spill = SpillMergeStore(add, spill_threshold_bytes=1)  # every put cuts
        inmem = TreeMapStore()
        for i in range(1_000):
            key = f"key-{i * 7919 % 331:03d}"
            for store in (spill, inmem):
                store.put(key, store.get(key, 0) + i)
            assert len(spill._spill_paths) <= MERGE_FAN_IN
        assert spill.spill_count == 999 > few_descriptors
        assert spill.compactions == 999 // MERGE_FAN_IN
        spill.finalize()
        assert list(spill.items()) == list(inmem.items())
        spill.close()

    def test_compaction_is_counted_apart_from_threshold_spills(self, tmp_path):
        spill = SpillMergeStore(
            add, spill_threshold_bytes=1, spill_dir=str(tmp_path)
        )
        for i in range(MERGE_FAN_IN + 1):  # the first put has nothing to cut
            spill.put(i % 10, 1)
        assert spill.spill_count == len(spill._spill_paths) == MERGE_FAN_IN
        assert spill.compactions == 0
        spilled_bytes = spill.spill_bytes_written
        # The run that would be one too many folds the others together first.
        spill.put(99, 1)
        assert spill.spill_count == spill.spilled_entries == MERGE_FAN_IN + 1
        assert len(spill._spill_paths) == 2 and spill.compactions == 1
        assert spill.num_spill_files == spill.spill_count  # runs cut, not on disk
        assert sorted(p.name for p in tmp_path.glob("*/*")) == [
            "merge-00000.wire",
            f"spill-{MERGE_FAN_IN:05d}.wire",
        ]
        # Only the threshold spill's own bytes count as spilled.
        assert 0 < spill.spill_bytes_written - spilled_bytes < 40
        assert spill.compaction_bytes_written > 40
        spill.finalize()
        merged = dict(spill.items())
        assert sum(merged.values()) == MERGE_FAN_IN + 2 and merged[99] == 1
        spill.close()

    def test_checkpoint_of_many_runs_stays_under_the_limit(
        self, few_descriptors, tmp_path
    ):
        spill = SpillMergeStore(add, spill_threshold_bytes=1)
        for i in range(400):
            spill.put(i % 50, spill.get(i % 50, 0) + 1)
        stats = spill.checkpoint(str(tmp_path / "ckpt"))
        assert stats.records == 50
        fresh = SpillMergeStore(add, spill_threshold_bytes=1)
        fresh.restore(str(tmp_path / "ckpt"))
        fresh.finalize()
        assert dict(fresh.items()) == {key: 8 for key in range(50)}
        spill.close()
        fresh.close()
