"""Property-based fuzzing of the shuffle wire codec (repro.dfs.wire).

The invariants under test are the ones the shuffle's correctness rests
on: every encodable record batch round-trips bit-exactly through a frame
(nested containers, unicode edge cases, varint-boundary counts included),
the per-record fast paths agree with the general ``encode`` /
``decode_at`` they shortcut, and every malformed frame — truncated
anywhere, corrupted anywhere, or correctly sealed around a payload that
is garbage — raises :class:`SerializationError` instead of decoding
garbage or escaping as some other exception.  The store files' pair
constructor (``make=entry_pair``: entries read back as plain tuples, no
:class:`Record` in between) is held to every one of them.
"""

from __future__ import annotations

import enum
import io
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Record
from repro.dfs.serialization import (
    MAX_DEPTH,
    SerializationError,
    decode_at,
    decode_pairs,
    encode,
    encode_pair,
)
from repro.dfs.wire import (
    FLAG_COMPRESSED,
    WireConfig,
    decode_batch,
    decode_batches,
    decode_frame,
    encode_frame,
    encode_record_batches,
    read_frames,
    seal_frame,
    write_batch,
)
from repro.memory.checkpoint import (
    encode_entry_frame,
    encode_entry_frames,
    entry_pair,
)

# NaN breaks equality-based round-trip assertions; the codec itself
# handles it (covered in test_serialization.py).  Ints stay inside the
# codec's 77-bit varint range — the limit itself is tested below.
_ints = st.integers(min_value=-(2**77 - 1), max_value=2**77 - 1)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

#: Nested containers of scalars — tuples, lists and string-keyed dicts.
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

#: Keys must be hashable (they feed partitioners and dict-backed stores).
_keys = st.one_of(
    _ints,
    st.text(max_size=30),
    st.binary(max_size=30),
    st.tuples(st.text(max_size=10), _ints),
)

_records = st.lists(
    st.builds(Record, _keys, _values), max_size=20
)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_records)
    def test_frame_roundtrip(self, records):
        config = WireConfig()
        batch = encode_frame(records, config)
        assert decode_batch(batch, config) == records
        assert batch.count == len(records)
        assert batch.raw_bytes >= 0

    @settings(max_examples=60, deadline=None)
    @given(_records, st.integers(min_value=1, max_value=7))
    def test_batched_roundtrip_respects_limits(self, records, max_records):
        config = WireConfig(max_batch_records=max_records)
        batches = encode_record_batches(records, config)
        assert decode_batches(batches, config) == records
        assert sum(batch.count for batch in batches) == len(records)
        for batch in batches:
            assert batch.count <= max_records
        # The reconciliation inequality the bench asserts fleet-wide.
        assert len(batches) * max_records >= len(records)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_records, max_size=5))
    def test_concatenated_frames_decode_in_sequence(self, batches):
        config = WireConfig()
        data = b"".join(
            encode_frame(records, config).frame for records in batches
        )
        offset = 0
        for records in batches:
            decoded, offset = decode_frame(data, offset)
            assert decoded == records
        assert offset == len(data)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_records, max_size=5))
    def test_frame_stream_roundtrip(self, batches):
        config = WireConfig()
        stream = io.BytesIO()
        for records in batches:
            write_batch(stream, encode_frame(records, config))
        stream.seek(0)
        decoded = [records for records in read_frames(stream)]
        assert decoded == [records for records in batches]

    @pytest.mark.parametrize("count", [0, 1, 127, 128, 300])
    def test_varint_boundary_record_counts(self, count):
        config = WireConfig(
            max_batch_records=1000, max_batch_bytes=1 << 24, compress=False
        )
        records = [Record(i, i) for i in range(count)]
        batch = encode_frame(records, config)
        assert decode_batch(batch, config) == records

    def test_unicode_edges(self):
        config = WireConfig()
        records = [
            Record("\x00", "embedded\x00null"),
            Record("surrogateless \U0001f600", "combining á"),
            Record("rtl ‮ txt", "￿ high BMP"),
        ]
        assert decode_batch(encode_frame(records, config), config) == records


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 200


class _Name(str):
    pass


#: Sides the exact-type dispatch must *not* take: they look like ``int``
#: or ``str`` to ``isinstance`` and have to encode exactly as before.
_lookalikes = st.one_of(
    st.booleans(),
    st.sampled_from(list(_Level)),
    st.text(max_size=200).map(_Name),
)

#: Long strings cross the one-byte length head (128 UTF-8 bytes).
_fast_sides = st.one_of(_ints, st.text(max_size=200), _lookalikes)


def _reference_decode(payload: bytes) -> list[Record]:
    """The loop ``decode_frame`` ran before it had an in-line fast path."""
    records = []
    cursor = 0
    while cursor < len(payload):
        entry, cursor = decode_at(payload, cursor)
        if not isinstance(entry, tuple) or len(entry) != 2:
            raise SerializationError(f"not a pair: {entry!r}")
        records.append(Record(*entry))
    return records


class TestFastPathsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_keys, _fast_sides), st.one_of(_values, _fast_sides))
    def test_pair_encoder_equals_general_encoder(self, key, value):
        assert encode_pair(key, value) == encode((key, value))

    @settings(max_examples=150, deadline=None)
    @given(_records)
    def test_inline_decoder_equals_decode_at_loop(self, records):
        payload = b"".join(encode((r.key, r.value)) for r in records)
        assert decode_pairs(payload, Record) == _reference_decode(payload)
        assert decode_pairs(payload, Record) == records

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_fast_sides, _fast_sides), max_size=20))
    def test_decoded_types_are_the_general_decoders(self, pairs):
        # bool / IntEnum / str-subclass sides come back as the plain
        # values the general decoder yields, from either loop.
        payload = b"".join(encode_pair(k, v) for k, v in pairs)
        fast = decode_pairs(payload, Record)
        slow = _reference_decode(payload)
        assert fast == slow
        assert [(type(r.key), type(r.value)) for r in fast] == [
            (type(r.key), type(r.value)) for r in slow
        ]

    def test_pair_with_padded_count_varint_still_decodes(self):
        # ``\x82\x00`` is a legal (non-canonical) varint 2: not the two
        # bytes the encoder writes, so it must reach the general decoder.
        payload = b"\x08\x82\x00" + encode("k") + encode(1)
        assert decode_pairs(payload, Record) == [Record("k", 1)]
        assert _reference_decode(payload) == [Record("k", 1)]


def _sealed(payload: bytes, count: int, *, deflate: bool = False) -> bytes:
    """A frame whose CRC is right whatever the payload holds."""
    if deflate:
        return seal_frame(
            FLAG_COMPRESSED, count, zlib.compress(payload), len(payload)
        ).frame
    return seal_frame(0, count, payload, len(payload)).frame


def _nested_lists(depth: int) -> bytes:
    """``[[[...[]...]]]``: ``depth`` one-element lists around an empty one."""
    return b"\x09\x01" * depth + b"\x09\x00"


#: CRC-valid frames the payload decoder used to let escape as
#: ``UnicodeDecodeError`` / ``TypeError`` / ``RecursionError``; each as
#: the first thing in a pair (the in-line path) and nested one level down
#: (``decode_at``'s).
_ESCAPES = {
    "utf8-inline-key": b"\x08\x02\x06\x02\xff\xfe\x00",
    "utf8-inline-value": b"\x08\x02\x00\x06\x01\xc3",
    "utf8-general": b"\x08\x02\x09\x01\x06\x02\xff\xfe\x00",
    "utf8-long": b"\x08\x02\x00\x06\x81\x01" + b"\xff" * 129,
    "dict-key-list": b"\x08\x02\x00\x0a\x01\x09\x00\x00",
    "dict-key-dict": b"\x08\x02\x0a\x01\x0a\x00\x00\x00",
    "set-member-list": b"\x08\x02\x00\x0b\x01\x09\x00",
    "set-member-nested": b"\x08\x02\x00\x0b\x01\x08\x01\x09\x00",
    "deep-value": b"\x08\x02\x00" + _nested_lists(5000),
    "deep-key": b"\x08\x02" + _nested_lists(5000) + b"\x00",
    "deep-bare": _nested_lists(5000),
    "just-too-deep": b"\x08\x02\x00" + _nested_lists(MAX_DEPTH - 1),
}


class TestMalformedFrames:
    @pytest.mark.parametrize("name", sorted(_ESCAPES))
    @pytest.mark.parametrize("deflate", [False, True])
    def test_sealed_malformed_payload_is_a_serialization_error(
        self, name, deflate
    ):
        frame = _sealed(_ESCAPES[name], 1, deflate=deflate)
        with pytest.raises(SerializationError):
            decode_frame(frame)
        with pytest.raises(SerializationError):
            list(read_frames(io.BytesIO(frame)))

    def test_deepest_allowed_nesting_roundtrips(self):
        value = []
        for _ in range(MAX_DEPTH - 2):  # the pair itself is level one
            value = [value]
        records = [Record("k", value)]
        assert decode_batch(encode_frame(records), WireConfig()) == records
        with pytest.raises(SerializationError, match="nesting"):
            encode_frame([Record("k", [value])])

    @settings(max_examples=300, deadline=None)
    @given(
        st.binary(max_size=120),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
    )
    def test_sealed_arbitrary_bytes_never_escape(self, payload, count, deflate):
        """The seal is valid, so the *payload decoder* is what is fuzzed."""
        frame = _sealed(payload, count, deflate=deflate)
        try:
            records, end = decode_frame(frame)
        except SerializationError:
            return
        assert end == len(frame) and len(records) == count
        # repr, not ==: arbitrary bytes decode to NaNs and signed zeros.
        assert repr(records) == repr(_reference_decode(payload))

    @settings(max_examples=300, deadline=None)
    @given(_records, st.data())
    def test_sealed_mutated_payload_never_escapes(self, records, data):
        payload = bytearray(
            b"".join(encode_pair(r.key, r.value) for r in records)
        )
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            where = data.draw(st.integers(min_value=0, max_value=len(payload)))
            edit = data.draw(st.sampled_from(["set", "insert", "delete"]))
            if edit == "insert" or where == len(payload):
                payload.insert(where, data.draw(st.integers(0, 255)))
            elif edit == "set":
                payload[where] = data.draw(st.integers(0, 255))
            else:
                del payload[where]
        frame = _sealed(bytes(payload), len(records))
        try:
            decoded, _end = decode_frame(frame)
        except SerializationError:
            return
        assert repr(decoded) == repr(_reference_decode(bytes(payload)))

    def test_stream_cut_inside_a_multibyte_header_varint(self):
        """``read_frames`` at every cut of a header with 2- and 3-byte varints."""
        config = WireConfig(
            max_batch_records=1000, max_batch_bytes=1 << 24, compress=False
        )
        records = [Record(f"key-{i:05d}", "v" * 100) for i in range(300)]
        frame = encode_frame(records, config).frame
        # flags, count = 300 (2 bytes), payload_len > 16383 (3 bytes).
        assert frame[1] & 0x80 and not frame[2] & 0x80
        assert frame[3] & 0x80 and frame[4] & 0x80 and not frame[5] & 0x80
        assert list(read_frames(io.BytesIO(frame + frame))) == [records] * 2
        assert list(read_frames(io.BytesIO(b""))) == []
        for cut in range(1, 8):
            with pytest.raises(SerializationError):
                list(read_frames(io.BytesIO(frame[:cut])))
            # ... and with a whole frame in front of the torn one.
            stream = read_frames(io.BytesIO(frame + frame[:cut]))
            assert next(stream) == records
            with pytest.raises(SerializationError):
                next(stream)

    @settings(max_examples=80, deadline=None)
    @given(_records, st.data())
    def test_truncation_never_decodes(self, records, data):
        frame = encode_frame(records, WireConfig()).frame
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(SerializationError):
            decode_frame(frame[:cut])

    @settings(max_examples=120, deadline=None)
    @given(_records, st.data())
    def test_corruption_never_decodes_garbage(self, records, data):
        """A flipped byte anywhere is caught (CRC covers header+payload).

        The corrupted frame must either raise or — never — decode to
        something other than the original records.  A CRC32 collision is
        the only escape and hypothesis cannot find one.
        """
        frame = encode_frame(records, WireConfig()).frame
        index = data.draw(
            st.integers(min_value=0, max_value=len(frame) - 1)
        )
        flip = data.draw(st.integers(min_value=1, max_value=255))
        corrupted = bytearray(frame)
        corrupted[index] ^= flip
        with pytest.raises(SerializationError):
            decode_frame(bytes(corrupted))

    def test_unknown_flags_rejected(self):
        frame = bytearray(encode_frame([Record("k", 1)], WireConfig()).frame)
        with pytest.raises(SerializationError, match="unknown frame flags"):
            decode_frame(bytes(bytearray([0x80]) + frame[1:]))

    def test_pickled_frame_requires_opt_in(self):
        # Only the store files' fallback writes pickled frames: a set
        # is not expressible in the typed codec.
        batch = encode_entry_frame([Record("k", {1})])
        with pytest.raises(SerializationError, match="pickled frame"):
            decode_frame(batch.frame)  # typed codec never auto-accepts
        records, _ = decode_frame(batch.frame, allow_pickle=True)
        assert records == [Record("k", {1})]
        with pytest.raises(SerializationError):
            decode_batch(batch, WireConfig())  # shuffle batches never opt in

    def test_empty_input_rejected(self):
        with pytest.raises(SerializationError):
            decode_frame(b"")

    @settings(max_examples=40, deadline=None)
    @given(_records, st.integers(min_value=1, max_value=8))
    def test_truncated_stream_raises_midframe(self, records, drop):
        config = WireConfig()
        frame = encode_frame(records, config).frame
        stream = io.BytesIO(frame[: max(1, len(frame) - drop)])
        with pytest.raises(SerializationError):
            list(read_frames(stream))

    def test_oversized_int_rejected_at_encode_time(self):
        """Found by this fuzz suite: the encoder used to emit varints the
        decoder's 77-bit cap rejects, producing frames that could never
        be read back.  Oversized ints must fail at encode time instead.
        """
        config = WireConfig()
        with pytest.raises(SerializationError):
            encode_frame([Record(2**77, None)], config)
        boundary = [Record(2**77 - 1, -(2**77 - 1))]
        assert decode_batch(encode_frame(boundary, config), config) == boundary

    def test_disabled_codec_cannot_encode(self):
        off = WireConfig(codec="off")
        with pytest.raises(SerializationError):
            encode_frame([Record("k", 1)], off)
        with pytest.raises(SerializationError):
            encode_record_batches([Record("k", 1)], off)


class TestPairConstructor:
    """``decode_frame`` / ``read_frames`` with ``make=entry_pair``.

    Spill runs, checkpoints and the kvstore log are written from pairs
    and read back as pairs; the frames are the shuffle's frames and every
    defect must fail exactly as it does for :class:`Record` readers.
    """

    @staticmethod
    def _stream(pairs, max_records):
        config = WireConfig(max_batch_records=max_records)
        stream = io.BytesIO()
        for batch in encode_entry_frames(iter(pairs), config):
            write_batch(stream, batch)
        return stream.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(_records, st.integers(min_value=1, max_value=7))
    def test_pairs_roundtrip_through_the_shuffle_frames(self, records, limit):
        pairs = [(r.key, r.value) for r in records]
        data = self._stream(pairs, limit)
        # Byte for byte what the Record encoder frames, cut the same way.
        config = WireConfig(max_batch_records=limit)
        assert data == b"".join(
            encode_frame(records[i : i + limit], config).frame
            for i in range(0, len(records), limit)
        )
        frames = list(read_frames(io.BytesIO(data), make=entry_pair))
        assert [pair for frame in frames for pair in frame] == pairs
        assert all(type(pair) is tuple for frame in frames for pair in frame)
        assert all(0 < len(frame) <= limit for frame in frames)
        # The default constructor reads the same file as Records.
        assert [
            record for frame in read_frames(io.BytesIO(data)) for record in frame
        ] == records

    @settings(max_examples=60, deadline=None)
    @given(_records, st.data())
    def test_truncated_pair_stream_raises(self, records, data):
        stream = self._stream([(r.key, r.value) for r in records], 3)
        if not stream:
            return
        cut = data.draw(st.integers(min_value=0, max_value=len(stream) - 1))
        try:
            frames = list(read_frames(io.BytesIO(stream[:cut]), make=entry_pair))
        except SerializationError:
            return
        # A cut on a frame boundary is a clean, shorter stream.
        whole = list(read_frames(io.BytesIO(stream), make=entry_pair))
        assert frames == whole[: len(frames)] and len(frames) < len(whole)

    @settings(max_examples=100, deadline=None)
    @given(_records, st.data())
    def test_bit_flip_in_a_pair_frame_raises(self, records, data):
        frame = encode_entry_frame([(r.key, r.value) for r in records]).frame
        index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        corrupted = bytearray(frame)
        corrupted[index] ^= data.draw(st.integers(min_value=1, max_value=255))
        with pytest.raises(SerializationError):
            decode_frame(bytes(corrupted), make=entry_pair)
        with pytest.raises(SerializationError):
            list(read_frames(io.BytesIO(bytes(corrupted)), make=entry_pair))

    @pytest.mark.parametrize("claimed", [0, 1, 3])
    def test_record_count_mismatch_raises(self, claimed):
        payload = encode_pair("a", 1) + encode_pair("b", 2)
        frame = _sealed(payload, claimed)
        with pytest.raises(SerializationError, match="count mismatch"):
            decode_frame(frame, make=entry_pair)
        with pytest.raises(SerializationError, match="count mismatch"):
            list(read_frames(io.BytesIO(frame), make=entry_pair))
        assert decode_frame(_sealed(payload, 2), make=entry_pair)[0] == [
            ("a", 1),
            ("b", 2),
        ]

    @pytest.mark.parametrize("name", sorted(_ESCAPES))
    def test_sealed_malformed_payload_is_a_serialization_error(self, name):
        with pytest.raises(SerializationError):
            decode_frame(_sealed(_ESCAPES[name], 1), make=entry_pair)

    def test_pickled_pair_frame_requires_opt_in(self):
        batch = encode_entry_frame([("k", {1}), ("l", 2)])
        with pytest.raises(SerializationError, match="pickled frame"):
            decode_frame(batch.frame, make=entry_pair)
        with pytest.raises(SerializationError, match="pickled frame"):
            list(read_frames(io.BytesIO(batch.frame), make=entry_pair))
        entries, end = decode_frame(
            batch.frame, allow_pickle=True, make=entry_pair
        )
        assert entries == [("k", {1}), ("l", 2)] and end == len(batch.frame)
        assert list(
            read_frames(io.BytesIO(batch.frame), allow_pickle=True, make=entry_pair)
        ) == [entries]
