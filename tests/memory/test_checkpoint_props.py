"""Property-based fuzzing of the checkpoint codec and store round-trips.

Two invariants, explored over randomized inputs (run in CI with
``--hypothesis-profile=ci`` for determinism):

1. **Round-trip identity** — for every partial-result store
   implementation, ``checkpoint`` then ``restore`` into a fresh store
   yields a value-identical finalized view, whatever sequence of ``put``
   calls produced the original (duplicate keys, unicode keys, negative
   values, enough volume to force spills and cache evictions).
2. **Fail closed** — a snapshot with any single byte flipped, or
   truncated at any length (frame boundaries included), raises
   :class:`CheckpointError`; there is no input that decodes to a
   *different* valid snapshot.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.checkpoint import (
    CheckpointError,
    checkpoint_path,
    read_checkpoint,
    write_checkpoint,
)
from repro.memory.kvstore import SpillingKVStore
from repro.memory.spill import SpillMergeStore
from repro.memory.store import TreeMapStore


def add(a, b):
    return a + b


STORE_FACTORIES = {
    "treemap": lambda: TreeMapStore(),
    # Tiny limits so random streams regularly cross the spill/evict paths.
    "spillmerge": lambda: SpillMergeStore(add, spill_threshold_bytes=300),
    "kvstore": lambda: SpillingKVStore(cache_bytes=256, write_buffer_bytes=128),
}

_keys = st.text(min_size=1, max_size=8)
_values = st.integers(min_value=-(2**40), max_value=2**40)
_streams = st.lists(st.tuples(_keys, _values), max_size=80)


def _drain(store) -> list:
    store.finalize()
    return list(store.items())


@pytest.mark.parametrize("kind", sorted(STORE_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(stream=_streams)
def test_checkpoint_restore_round_trip(kind, stream):
    original, restored = STORE_FACTORIES[kind](), STORE_FACTORIES[kind]()
    try:
        for key, value in stream:
            original.put(key, value)
        with tempfile.TemporaryDirectory() as directory:
            original.checkpoint(directory, meta={"records": len(stream)})
            meta = restored.restore(directory)
            assert meta == {"records": len(stream)}
            assert _drain(restored) == _drain(original)
    finally:
        for store in (original, restored):
            getattr(store, "close", lambda: None)()


@settings(max_examples=60, deadline=None)
@given(stream=_streams, data=st.data())
def test_single_byte_corruption_raises(stream, data):
    with tempfile.TemporaryDirectory() as directory:
        write_checkpoint(directory, stream, meta={"records": len(stream)})
        path = checkpoint_path(directory)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
        flip = data.draw(st.integers(1, 255), label="xor")
        blob[offset] ^= flip
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(CheckpointError):
            read_checkpoint(directory)


@settings(max_examples=60, deadline=None)
@given(stream=_streams, data=st.data())
def test_any_truncation_raises(stream, data):
    with tempfile.TemporaryDirectory() as directory:
        write_checkpoint(directory, stream, meta={"records": len(stream)})
        path = checkpoint_path(directory)
        with open(path, "rb") as fh:
            blob = fh.read()
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(CheckpointError):
            read_checkpoint(directory)
