"""Byte identity of the shuffle wire format.

The codec may get faster; the bytes it writes may not move. The row
digest below was computed at the commit *before* the
one-encode-per-record codec over a fixed corpus that reaches every type
tag, every varint width the format allows and every batch-cut rule — so
any later codec change that alters a row frame, a batch boundary or the
accounting that rides with it fails here, in one assert. The corpus is
mixed, so none of its frames is columnar. The columnar digest pins the
frames of one-type-per-side batches (the apps' shapes) the same way,
from the commit that introduced them, re-pinned once when int columns
became narrow byte planes (every frame boundary and the batch count
unchanged), and the read-compat rows hold that
frames, spill runs and checkpoints written in the row layout before
columns existed still decode and restore. ``make codec`` runs this file
with the serialization tests and the wire fuzz suite.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import io

import pytest

from repro.core.types import Record
from repro.dfs.serialization import decode_at, encode
from repro.dfs.wire import (
    FLAG_COLUMNAR,
    WireConfig,
    decode_batch,
    encode_frame,
    encode_record_batches,
    entry_pair,
    frame_size,
    read_frames,
)
from repro.memory.checkpoint import (
    checkpoint_path,
    encode_entry_frames,
    read_checkpoint,
    read_entry_frames,
)
from repro.memory.kvstore import SpillingKVStore
from repro.memory.spill import SpillMergeStore
from repro.memory.store import TreeMapStore


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 300


class Tagged(str):
    """A ``str`` subclass: must encode exactly as the ``str`` it is."""


class Wide(int):
    """An ``int`` subclass."""


#: 0/1-byte, 1/2-byte, 2/3-byte varint edges, then the 10/11-byte edge
#: and the 77-bit cap.
_INT_EDGES = (
    0, 1, 127, 128, 129, 16383, 16384, 16385, 2**21 - 1, 2**21,
    2**63, 2**70 - 1, 2**70, 2**77 - 1,
)

_FLOATS = (
    0.0, -0.0, 1.5, -2.5e-300, 1e308, float("inf"), float("-inf"),
    float("nan"),
)

_STRINGS = (
    "", "a", "the", "ünïcode ✓", "astral \U0001f600\U00010348",
    "\x00embedded\x00", "x" * 127, "x" * 128, "é" * 64, "é" * 63 + "e",
    "long " * 700,
)

_BYTES = (b"", b"\x00\xff raw", bytes(range(256)), b"z" * 127, b"z" * 128)


def corpus() -> list[Record]:
    """Every tag as key and as value, plus the shapes the apps emit."""
    records: list[Record] = []
    # wc / grep / sort / pp shapes: the fast-path majority.
    for i in range(600):
        records.append(Record(f"w{i % 37}", 1))
        records.append(Record(i * 7919 % 100003, f"line {i}"))
        records.append(Record((f"doc{i % 5}", i), (i, 1.0 / (i + 1))))
    for n in _INT_EDGES:
        records.append(Record(n, -n))
        records.append(Record(-n, n))
        records.append(Record(str(n), (n, [n, -n])))
    for x in _FLOATS:
        records.append(Record(x, x))
        records.append(Record(repr(x), [x, (x,)]))
    for s in _STRINGS:
        records.append(Record(s, s))
        records.append(Record(len(s), (s, s.encode("utf-8"))))
    for b in _BYTES:
        records.append(Record(b, b))
    # Singletons, and the types that are *not* exactly int / str.
    records += [
        Record(None, None),
        Record(True, False),
        Record(False, True),
        Record(1, True),
        Record(0, False),
        Record(Colour.RED, Colour.BLUE),
        Record(Colour.BLUE, "enum key"),
        Record(Tagged("sub"), Tagged("x" * 200)),
        Record(Wide(5), Wide(-(2**40))),
    ]
    # Containers: nesting, emptiness, and deterministic ordering.
    records += [
        Record((), []),
        Record(((), ((),)), [[], [[]]]),
        Record(("a", 1, 2.0, None, True, b"b"), ["a", 1, 2.0, None, False]),
        Record("dict", {}),
        Record("dict", {"b": 1, "a": 2, "aa": 3, "": 4}),
        Record("dict", {2: "int", "2": "str", 2.5: "float", None: 0,
                        (1, 2): "tuple", b"2": "bytes", True: "bool"}),
        Record("dict", {"k": {"nested": {"deep": [1, {"x": (2, 3)}]}}}),
        Record("dict", {i: i * i for i in range(200, 0, -1)}),
        Record("dict", {Colour.BLUE: 1, Tagged("t"): 2, Wide(9): 3}),
        Record("set", frozenset()),
        Record("set", frozenset({3, 1, 2, 128, -1, "s", b"s", None, 2.5})),
        Record(frozenset({("a", 1), ("b", 2)}), frozenset({frozenset({1})})),
        Record("rpc", {"kind": "assign-map", "job": 3, "index": 0,
                       "attempt": 1, "hosts": [["127.0.0.1", 7001]],
                       "done": False, "lease": 2.5}),
    ]
    return records


#: Configurations that exercise both cut rules, with and without deflate.
_CONFIGS = (
    WireConfig(),
    WireConfig(compress=False),
    WireConfig(max_batch_records=7),
    WireConfig(max_batch_bytes=300, compress=False),
    WireConfig(max_batch_records=1000, max_batch_bytes=1 << 24),
    WireConfig(compress_min_bytes=0),
)

GOLDEN_SHA256 = (
    "4f25af0bf0a63ea23bf17531c3befa5907ba0ad7e8024fc558f26a3c3bcf7e6c"
)
GOLDEN_BATCHES = 434


def _digest() -> tuple[str, int]:
    records = corpus()
    sha = hashlib.sha256()
    total = 0
    for config in _CONFIGS:
        batches = encode_record_batches(records, config)
        # One unbatched frame too: ``encode_frame`` is the rpc, journal,
        # telemetry and store-file entry point.
        batches.append(encode_frame(records[:50], config))
        for batch in batches:
            sha.update(b"%d:%d:%d;" % (batch.count, batch.raw_bytes,
                                       len(batch.frame)))
            sha.update(batch.frame)
        total += len(batches)
    return sha.hexdigest(), total


def test_frames_are_byte_identical_to_the_parent_commit():
    digest, batches = _digest()
    assert batches == GOLDEN_BATCHES
    assert digest == GOLDEN_SHA256


def test_corpus_reaches_every_tag():
    """The corpus is only a guard if it still covers the format."""
    seen: set[int] = set()

    def walk(data: bytes) -> None:
        # Tags are the first byte of every encoded value; re-encode each
        # decoded sub-value to visit nested ones.
        value, _ = decode_at(data, 0)
        seen.add(data[0])
        if isinstance(value, dict):
            for key, item in value.items():
                walk(encode(key))
                walk(encode(item))
        elif isinstance(value, (tuple, list, frozenset)):
            for item in value:
                walk(encode(item))

    for record in corpus():
        walk(encode((record.key, record.value)))
    assert seen == set(range(0x0C))


# ---------------------------------------------------------------------------
# columnar frames
# ---------------------------------------------------------------------------

#: int64's edges and the varint widths either side of them.
_INT64_EDGES = (
    0, 1, -1, 127, 128, 2**21, -(2**21), 2**31, 2**62, 2**63 - 1, -(2**63),
)
_COLUMN_FLOATS = (
    0.0, -0.0, 0.5, 1e-310, -1e308, float("inf"), float("-inf"),
    float("nan"),
)
_COLUMN_STRINGS = (
    "", "a", "ünïcode", "astral \U0001f600\U00010348", "x" * 300,
)


def columnar_corpus() -> list[list[tuple]]:
    """Runs of one shape each: wc's ``(str, int)``, sort's ``(int, int)``,
    grep's ``(int, str)`` and pp's ``(str, float)``, with every edge."""
    return [
        [(f"w{i % 37}", i % 5 + 1) for i in range(700)]
        + [(s, n) for s in _COLUMN_STRINGS for n in _INT64_EDGES],
        [(i * 7919 % 100003, i) for i in range(600)]
        + [(n, -n - 1) for n in _INT64_EDGES],
        [(i, f"line {i} " * (i % 9)) for i in range(500)]
        + [(n, s) for n in _INT64_EDGES for s in _COLUMN_STRINGS],
        [(f"doc{i}", 1.0 / (i + 1)) for i in range(400)]
        + [(s, x) for s in _COLUMN_STRINGS for x in _COLUMN_FLOATS],
    ]


COLUMNAR_SHA256 = (
    "34f735629c16f737d38befdde9be12bfe2ac288001636aa4c5825aff4eefb861"
)
COLUMNAR_BATCHES = 973


def _columnar_digest() -> tuple[str, int]:
    sha = hashlib.sha256()
    total = 0
    for config in _CONFIGS:
        for pairs in columnar_corpus():
            records = [Record(key, value) for key, value in pairs]
            batches = encode_record_batches(records, config)
            # Store files cut at ``max_batch_records`` alone.
            batches += encode_entry_frames(pairs, config)
            for batch in batches:
                assert (batch.frame[0] & FLAG_COLUMNAR != 0) == (batch.count > 1)
                sha.update(b"%d:%d:%d;" % (batch.count, batch.raw_bytes,
                                           len(batch.frame)))
                sha.update(batch.frame)
            total += len(batches)
    return sha.hexdigest(), total


def test_columnar_frames_are_pinned():
    digest, batches = _columnar_digest()
    assert batches == COLUMNAR_BATCHES
    assert digest == COLUMNAR_SHA256


def test_columnar_corpus_round_trips():
    for config in _CONFIGS:
        for pairs in columnar_corpus():
            records = [Record(key, value) for key, value in pairs]
            decoded = [
                record
                for batch in encode_record_batches(records, config)
                for record in decode_batch(batch, config)
            ]
            # repr: NaN is not equal to itself, and -0.0 equals 0.0.
            assert repr(decoded) == repr(records)
            assert [type(r.value) for r in decoded] == [
                type(r.value) for r in records
            ]


# ---------------------------------------------------------------------------
# read compatibility: bytes written in the row layout, before columns
# ---------------------------------------------------------------------------

#: The shapes ``columnar_corpus`` pins, small.
_OLD_SHAPES = (
    [(f"w{i}", i) for i in range(40)],
    [(i, i * i) for i in range(5)],
    [(i, f"line {i}") for i in range(5)],
    [(f"k{i}", i / 3) for i in range(5)],
)

#: ``encode_record_batches(shape, WireConfig())`` for each shape, the
#: frames concatenated, as the row-only codec wrote them.
_OLD_SHUFFLE = base64.b64decode("""
ASiOAXicJcZFAsJAEEVByEOCu7tvMzPRk+X6QP9VVRx1ojqhEf91NE1PZAYwU1pmRtvM
6ZgFXbMkNit6P6ldQl9xDBTPUAmMlJSxkjFRcqZKwUwpmSsVC4tPWCqOleJZK4GNkrJV
MnZKzl4pOCglR6XiZAkJZ8VxUTxXJXBTUu5KxkPJeSoFL6XkrVR8vnbAJxt7bvhuAAUe
CAIDAAMACAIDAQMBCAIDAgMECAIDAwMJCAIDBAMQdjw9SgAFPAgCAwAGBmxpbmUgMAgC
AwEGBmxpbmUgMQgCAwIGBmxpbmUgMggCAwMGBmxpbmUgMwgCAwQGBmxpbmUgNP5K2RsB
BS94nONgYmPKNmBlgAIOENeQ1f5qKBiAuUas9k+RuMas9h+QFJuw2n+FyAIAv8sOGgen
vnU=""")

#: A ``SpillMergeStore`` run of ``sorted(_OLD_SHAPES[0])``, row layout.
_OLD_RUN = base64.b64decode("""
ASiVAXicJc1FFsJAFERRyEOCu7tP093RlWX7wK/Ru6cmFUedqE5oxP86mr9Su4S+4BgI
nqEQGAkpYyFjIuRMhYKZUDIXKhb24Ils8AlLwbESPGshsBFStkLGTsjZCwUHoeQoVJzs
IYANIeEsOC6C5yoEbkLKXch4CDlPoeAllLyFio89pLSsGW1rTsda0LWWxNaK3heK0ycb
C/8U5A==""")

#: ``write_checkpoint(d, sorted(_OLD_SHAPES[0]), meta={"app": "wc"})``,
#: row layout.
_OLD_CHECKPOINT = base64.b64decode("""
AAE7CAIGGV9fcmVwcm9fY2hlY2twb2ludF9tZXRhX18KAgYEbWV0YQoBBgNhcHAGAndj
Bgd2ZXJzaW9uAwFJ0ymaASiVAXicJc1FFsJAFERRyEOCu7tP093RlWX7wK/Ru6cmFUed
qE5oxP86mr9Su4S+4BgInqEQGAkpYyFjIuRMhYKZUDIXKhb24Ils8AlLwbESPGshsBFS
tkLGTsjZCwUHoeQoVJzsIYANIeEsOC6C5yoEbkLKXch4CDlPoeAllLyFio89pLSsGW1r
Tsda0LWWxNaK3heK0ycbC/8U5AABMwgCBhhfX3JlcHJvX2NoZWNrcG9pbnRfZW5kX18K
AgYGZnJhbWVzAwIGB3JlY29yZHMDKNR047Y=""")


def test_row_layout_shuffle_frames_still_decode():
    frames = list(read_frames(io.BytesIO(_OLD_SHUFFLE)))
    assert frames == [
        [Record(key, value) for key, value in pairs] for pairs in _OLD_SHAPES
    ]
    assert not any(frame[0] & FLAG_COLUMNAR for frame in _split(_OLD_SHUFFLE))
    # The same pairs, sealed now, are columnar frames.
    for pairs in _OLD_SHAPES:
        (batch,) = encode_record_batches(
            [Record(key, value) for key, value in pairs], WireConfig()
        )
        assert batch.frame[0] & FLAG_COLUMNAR


def _split(data: bytes) -> list[bytes]:
    frames, offset = [], 0
    while offset < len(data):
        size = frame_size(data, offset)
        frames.append(data[offset : offset + size])
        offset += size
    return frames


def test_row_layout_spill_run_still_reads(tmp_path):
    path = tmp_path / "spill-00000.wire"
    path.write_bytes(_OLD_RUN)
    with open(path, "rb") as fh:
        entries = [entry for frame in read_entry_frames(fh) for entry in frame]
    assert entries == sorted(_OLD_SHAPES[0])
    assert list(read_frames(io.BytesIO(_OLD_RUN), make=entry_pair)) == [
        sorted(_OLD_SHAPES[0])
    ]


@pytest.mark.parametrize(
    "make_store",
    [
        TreeMapStore,
        lambda: SpillMergeStore(merge_fn=lambda a, b: a + b),
        SpillingKVStore,
    ],
    ids=["treemap", "spillmerge", "kvstore"],
)
def test_row_layout_checkpoint_still_restores(tmp_path, make_store):
    with open(checkpoint_path(str(tmp_path)), "wb") as fh:
        fh.write(_OLD_CHECKPOINT)
    assert read_checkpoint(str(tmp_path)) == (
        {"app": "wc"}, sorted(_OLD_SHAPES[0])
    )
    store = make_store()
    try:
        assert store.restore(str(tmp_path)) == {"app": "wc"}
        store.finalize()
        assert list(store.items()) == sorted(_OLD_SHAPES[0])
    finally:
        close = getattr(store, "close", None)
        if close is not None:
            close()
