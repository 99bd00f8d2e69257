"""Tests for atomic partial-result checkpoints (repro.memory.checkpoint).

The contract: a checkpoint either reads back exactly what was written —
meta dict plus every store entry — or raises :class:`CheckpointError`.
There is no third outcome; a torn, truncated or bit-flipped snapshot must
fail closed so the engines fall back to a full refold instead of resuming
from garbage.  The suite also covers the three partial-result stores'
``checkpoint``/``restore`` round-trips, since those are the code paths a
restarted reduce attempt actually exercises.
"""

from __future__ import annotations

import os

import pytest

from repro.memory.checkpoint import (
    CHECKPOINT_FILENAME,
    CheckpointError,
    CheckpointPolicy,
    checkpoint_exists,
    checkpoint_path,
    discard_checkpoint,
    peek_checkpoint_meta,
    read_checkpoint,
    write_checkpoint,
)
from repro.memory.kvstore import SpillingKVStore
from repro.memory.spill import SpillMergeStore
from repro.memory.store import TreeMapStore


def add(a, b):
    return a + b


ENTRIES = [(f"key-{i:03d}", i * 7) for i in range(64)]
META = {"progress": {0: (3, 1, 40), 1: (2, 0, 24)}, "records": 64}


class TestWriteRead:
    def test_round_trip(self, tmp_path):
        stats = write_checkpoint(str(tmp_path), ENTRIES, meta=META)
        assert stats.records == len(ENTRIES)
        assert stats.path == checkpoint_path(str(tmp_path))
        assert stats.bytes == os.path.getsize(stats.path)
        meta, entries = read_checkpoint(str(tmp_path))
        assert entries == ENTRIES
        assert meta["records"] == 64
        # Progress tuples survive framing with per-mapper structure intact.
        progress = {int(m): tuple(v) for m, v in meta["progress"].items()}
        assert progress == META["progress"]

    def test_empty_snapshot_round_trips(self, tmp_path):
        stats = write_checkpoint(str(tmp_path), [], meta={"records": 0})
        assert stats.records == 0
        meta, entries = read_checkpoint(str(tmp_path))
        assert entries == [] and meta == {"records": 0}

    def test_peek_returns_meta_only(self, tmp_path):
        write_checkpoint(str(tmp_path), ENTRIES, meta={"records": 64})
        assert peek_checkpoint_meta(str(tmp_path)) == {"records": 64}

    def test_exists_and_discard(self, tmp_path):
        assert not checkpoint_exists(str(tmp_path))
        write_checkpoint(str(tmp_path), ENTRIES)
        assert checkpoint_exists(str(tmp_path))
        discard_checkpoint(str(tmp_path))
        assert not checkpoint_exists(str(tmp_path))
        discard_checkpoint(str(tmp_path))  # idempotent

    def test_overwrite_replaces_previous_snapshot(self, tmp_path):
        write_checkpoint(str(tmp_path), [("old", 1)], meta={"gen": 1})
        write_checkpoint(str(tmp_path), [("new", 2)], meta={"gen": 2})
        meta, entries = read_checkpoint(str(tmp_path))
        assert entries == [("new", 2)] and meta == {"gen": 2}

    def test_no_temp_file_left_behind(self, tmp_path):
        write_checkpoint(str(tmp_path), ENTRIES)
        assert os.listdir(tmp_path) == [CHECKPOINT_FILENAME]

    def test_crash_before_rename_keeps_old_snapshot(self, tmp_path, monkeypatch):
        # Atomicity is the temp-write-then-rename: if the process dies at
        # any point before os.replace, the previous snapshot must still
        # read back intact.
        import repro.memory.checkpoint as ckpt_mod

        write_checkpoint(str(tmp_path), [("stable", 1)], meta={"gen": 1})

        def boom(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(ckpt_mod.os, "replace", boom)
        with pytest.raises(OSError):
            write_checkpoint(str(tmp_path), [("half", 9)], meta={"gen": 2})
        monkeypatch.undo()
        meta, entries = read_checkpoint(str(tmp_path))
        assert entries == [("stable", 1)] and meta == {"gen": 1}

    def test_pickle_fallback_for_untyped_values(self, tmp_path):
        # Sets are not expressible in the typed wire codec; they must
        # survive via CRC-framed pickle batches.
        entries = [("a", {1, 2, 3}), ("b", frozenset({"x"}))]
        write_checkpoint(str(tmp_path), entries)
        _meta, loaded = read_checkpoint(str(tmp_path))
        assert loaded == entries


class TestFailClosed:
    def _written(self, tmp_path) -> bytes:
        write_checkpoint(str(tmp_path), ENTRIES, meta=META)
        with open(checkpoint_path(str(tmp_path)), "rb") as fh:
            return fh.read()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path))

    def test_empty_file(self, tmp_path):
        open(checkpoint_path(str(tmp_path)), "wb").close()
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path))

    def test_garbage_file(self, tmp_path):
        with open(checkpoint_path(str(tmp_path)), "wb") as fh:
            fh.write(b"\xde\xad\xbe\xef" * 64)
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path))

    def test_every_truncation_point_raises(self, tmp_path):
        # Includes truncation exactly on frame boundaries: frames are
        # self-delimiting, so only the trailer's counts catch a snapshot
        # whose tail frames were cleanly chopped off.
        data = self._written(tmp_path)
        path = checkpoint_path(str(tmp_path))
        for cut in range(len(data)):
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            with pytest.raises(CheckpointError):
                read_checkpoint(str(tmp_path))

    def test_bit_flips_raise(self, tmp_path):
        data = self._written(tmp_path)
        path = checkpoint_path(str(tmp_path))
        for offset in range(0, len(data), 3):
            corrupted = bytearray(data)
            corrupted[offset] ^= 0x41
            with open(path, "wb") as fh:
                fh.write(corrupted)
            with pytest.raises(CheckpointError):
                read_checkpoint(str(tmp_path))

    def test_missing_meta_frame(self, tmp_path):
        # A wire-valid file whose first frame is not the meta record.
        from repro.core.types import Record
        from repro.dfs.wire import WireConfig, encode_frame, write_batch

        with open(checkpoint_path(str(tmp_path)), "wb") as fh:
            write_batch(fh, encode_frame([Record("k", 1)], WireConfig()))
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path))

    def test_peek_validates_whole_file(self, tmp_path):
        # peek must not succeed on a snapshot whose tail is torn — the
        # engines rely on it as the go/no-go check before mutating state.
        data = self._written(tmp_path)
        with open(checkpoint_path(str(tmp_path)), "wb") as fh:
            fh.write(data[:-2])
        with pytest.raises(CheckpointError):
            peek_checkpoint_meta(str(tmp_path))


class TestPolicy:
    def test_rejects_non_positive_triggers(self):
        for kwargs in (
            {"every_records": 0},
            {"every_bytes": -1},
            {"interval_s": 0.0},
        ):
            with pytest.raises(ValueError):
                CheckpointPolicy(**kwargs)

    def test_no_triggers_is_inert(self):
        policy = CheckpointPolicy()
        assert not policy.enabled
        assert not policy.due(10**9, 10**9, 10**9)

    def test_triggers_compose_with_or(self):
        policy = CheckpointPolicy(every_records=10, interval_s=5.0)
        assert policy.enabled
        assert not policy.due(9, 0, 4.9)
        assert policy.due(10, 0, 0.0)
        assert policy.due(0, 0, 5.0)

    def test_byte_trigger(self):
        policy = CheckpointPolicy(every_bytes=1024)
        assert policy.due(0, 1024, 0.0)
        assert not policy.due(0, 1023, 0.0)


# ---------------------------------------------------------------------------
# store round-trips: the paths a restarted reduce attempt exercises
# ---------------------------------------------------------------------------

STORE_FACTORIES = {
    "treemap": lambda: TreeMapStore(),
    # Tiny thresholds so the snapshot spans spill files + buffer.
    "spillmerge": lambda: SpillMergeStore(add, spill_threshold_bytes=400),
    "kvstore": lambda: SpillingKVStore(cache_bytes=512, write_buffer_bytes=256),
}


def _fill(store) -> None:
    for i in range(80):
        store.put(f"key-{i % 23:03d}", 1)


def _drain(store) -> list:
    store.finalize()
    return list(store.items())


@pytest.fixture
def build(kind):
    """Builds ``kind`` stores; closes them (spill directory, log) after."""
    built = []

    def factory():
        built.append(STORE_FACTORIES[kind]())
        return built[-1]

    yield factory
    for store in built:
        getattr(store, "close", lambda: None)()


@pytest.mark.parametrize("kind", sorted(STORE_FACTORIES))
class TestStoreRoundTrip:
    def test_restore_matches_original(self, build, tmp_path):
        original = build()
        _fill(original)
        meta_in = {"records": 80}
        original.checkpoint(str(tmp_path), meta=meta_in)

        restored = build()
        meta_out = restored.restore(str(tmp_path))
        assert meta_out == meta_in
        assert _drain(restored) == _drain(original)

    def test_checkpoint_is_non_destructive(self, build, tmp_path):
        # The store keeps folding after a snapshot; later puts are seen.
        store = build()
        _fill(store)
        store.checkpoint(str(tmp_path))
        store.put("zzz-late", 5)
        drained = dict(_drain(store))
        assert drained["zzz-late"] == 5

    def test_restore_refuses_corrupt_snapshot(self, build, tmp_path):
        original = build()
        _fill(original)
        original.checkpoint(str(tmp_path))
        path = checkpoint_path(str(tmp_path))
        with open(path, "r+b") as fh:
            data = bytearray(fh.read())
            data[len(data) // 2] ^= 0xFF
            fh.seek(0)
            fh.write(data)
        fresh = build()
        with pytest.raises(CheckpointError):
            fresh.restore(str(tmp_path))
        # Failing closed must leave the fresh store empty.
        assert _drain(fresh) == []
