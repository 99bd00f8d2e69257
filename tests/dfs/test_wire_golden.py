"""Byte identity of the shuffle wire format.

The codec may get faster; the bytes it writes may not move.  The digest
below was computed at the commit *before* the one-encode-per-record codec
(PR 22's parent) over a fixed corpus that reaches every type tag, every
varint width the format allows and every batch-cut rule — so any later
codec change that alters a frame, a batch boundary or the accounting that
rides with it fails here, in one assert.  ``make codec`` runs this file
with the serialization tests and the wire fuzz suite.
"""

from __future__ import annotations

import enum
import hashlib

from repro.core.types import Record
from repro.dfs.serialization import decode_at, encode
from repro.dfs.wire import WireConfig, encode_frame, encode_record_batches


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
