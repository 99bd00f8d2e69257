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
:class:`Record` in between) is held to every one of them.  Columnar
frames are held to the same, and a batch that must not be columnar is
held to the row frame the general encoder gives (same bytes, or the same
error), cut where the row rule cuts.
"""

from __future__ import annotations

import enum
import io
import math
import struct
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
    decode_varint,
    encode,
    encode_pair,
    encode_varint,
)
from repro.dfs.wire import (
    FLAG_COLUMNAR,
    FLAG_COMPRESSED,
    WireConfig,
    decode_batch,
    decode_batches,
    decode_frame,
    encode_frame,
    cut_frames,
    encode_record_batches,
    entry_pair,
    read_frames,
    seal_frame,
    write_batch,
)
from repro.memory.checkpoint import encode_entry_frame, encode_entry_frames

# NaN breaks equality-based round-trip assertions; the codec itself
# handles it (covered in test_serialization.py).  Ints stay inside the
# codec's 77-bit varint range — the limit itself is tested below — and
# every varint width is drawn on purpose: ``decode_pairs`` reads one-,
# two- and three-byte positive ints in line and hands wider ones (and
# every negative) to the general decoder.
_VARINT_WIDTHS = (0, 2**7, 2**14, 2**21, 2**28, 2**77 - 1)
_multibyte_ints = st.one_of(
    *(
        st.integers(min_value=low, max_value=high)
        for low, high in zip(_VARINT_WIDTHS, _VARINT_WIDTHS[1:])
    ),
    st.sampled_from([2**7 - 1, 2**7, 2**14 - 1, 2**14, 2**21 - 1, 2**21]),
)
_ints = st.one_of(
    st.integers(min_value=-(2**77 - 1), max_value=2**77 - 1),
    _multibyte_ints,
    _multibyte_ints.map(lambda n: -n),
)
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

    @pytest.mark.parametrize(
        "number",
        [127, 128, 300, 16383, 16384, 999_999, 2**21 - 1, 2**21, 2**28, 2**77 - 1],
    )
    @pytest.mark.parametrize("side", ["key", "value"])
    def test_multibyte_int_at_either_side_matches_the_general_decoder(
        self, number, side
    ):
        pair = (number, "v") if side == "key" else ("k", number)
        payload = encode_pair(*pair) * 2
        assert decode_pairs(payload, entry_pair) == [pair, pair]
        assert decode_pairs(payload, Record) == _reference_decode(payload)

    @pytest.mark.parametrize("side", ["key", "value"])
    def test_padded_and_truncated_inline_varints(self, side):
        # ``\x80\x00`` and ``\x81\x80\x00`` are legal non-canonical
        # encodings of 0 and 1, read in line exactly as the general
        # decoder reads them; a varint cut off inside its continuation
        # bytes is an error.
        other = encode("x")
        for varint in (b"\x80\x00", b"\x81\x80\x00", b"\xff\xff\x7f"):
            side_bytes = b"\x03" + varint
            body = side_bytes + other if side == "key" else other + side_bytes
            payload = b"\x08\x02" + body
            assert decode_pairs(payload, Record) == _reference_decode(payload)
        for varint in (b"\x80", b"\x80\x80", b"\xff\xff\xff"):
            body = b"\x03" + varint
            payload = b"\x08\x02" + (body if side == "key" else other + body)
            with pytest.raises(SerializationError):
                decode_pairs(payload, Record)
            with pytest.raises(SerializationError):
                _reference_decode(payload)

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

    @pytest.mark.parametrize(
        "flag",
        [0x80, 0x40, 0x20, 0x10, 0x08, 0x04],
        ids=["0x80", "0x40", "0x20", "0x10", "0x08", "0x04"],
    )
    def test_unknown_flags_rejected(self, flag):
        # Correctly sealed around a valid payload, so nothing but the
        # flags byte can reject it.  Compression and columns are the
        # only flags.
        frame = seal_frame(flag, 1, encode_pair("k", 1), 0).frame
        with pytest.raises(SerializationError, match="unknown frame flags"):
            decode_frame(frame)
        with pytest.raises(SerializationError, match="unknown frame flags"):
            list(read_frames(io.BytesIO(frame)))
        with pytest.raises(SerializationError, match="unknown frame flags"):
            decode_frame(seal_frame(flag | FLAG_COMPRESSED, 1, b"", 0).frame)

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


# ---------------------------------------------------------------------------
# columnar frames
# ---------------------------------------------------------------------------

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: One strategy per column type, edges drawn on purpose.
_column_items = {
    "int": st.one_of(
        st.integers(_INT64_MIN, _INT64_MAX),
        st.sampled_from(
            [0, 1, -1, 127, 128, 2**31, -(2**31), _INT64_MAX, _INT64_MIN]
        ),
    ),
    "float": st.one_of(
        st.floats(),
        st.sampled_from(
            [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324]
        ),
    ),
    "str": st.one_of(
        st.text(
            st.characters(codec="utf-8", exclude_characters="\x00"), max_size=30
        ),
        st.just(""),
        st.text(
            st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
            min_size=1, max_size=4,
        ),
    ),
}


@st.composite
def _homogeneous(draw, min_size=2, max_size=40):
    """Pairs whose keys are one column type and values another."""
    key_kind = draw(st.sampled_from(sorted(_column_items)))
    value_kind = draw(st.sampled_from(sorted(_column_items)))
    size = draw(st.integers(min_size, max_size))
    keys = draw(st.lists(_column_items[key_kind], min_size=size, max_size=size))
    values = draw(
        st.lists(_column_items[value_kind], min_size=size, max_size=size)
    )
    return list(zip(keys, values))


class _Colour(enum.IntEnum):
    RED = 1


class _Word(str):
    pass


#: Items that keep a batch out of the columnar layout wherever they sit.
_POISON = st.one_of(
    st.sampled_from([2**63, _INT64_MIN - 1, 2**77 - 1, -(2**77 - 1)]),
    st.booleans(),
    st.just(_Colour.RED),
    st.text(max_size=10).map(_Word),
    st.text(max_size=10).map(lambda text: text + "\x00"),
    st.none(),
    st.binary(max_size=10),
)


def _bits(pairs) -> list:
    """Pairs with every float as its bit pattern: NaN and -0.0 compare."""
    def side(item):
        if type(item) is float:
            return ("float", struct.pack("<d", item))
        return (type(item), item)

    return [(side(key), side(value)) for key, value in pairs]


def _row_frame(pairs, config: WireConfig) -> bytes:
    """The row frame the general encoder gives: what every frame was
    before columns existed."""
    payload = b"".join(encode((key, value)) for key, value in pairs)
    raw = len(payload)
    flags = 0
    if config.compress and raw >= config.compress_min_bytes:
        deflated = zlib.compress(payload)
        if len(deflated) < raw:
            payload, flags = deflated, FLAG_COMPRESSED
    return seal_frame(flags, len(pairs), payload, raw).frame


def _row_cuts(pairs, config: WireConfig) -> list[int]:
    """Frame sizes under the row rule: cut before the pair that would
    pass ``max_batch_records`` or ``max_batch_bytes`` of row bytes."""
    counts: list[int] = []
    count = size = 0
    for key, value in pairs:
        width = len(encode((key, value)))
        if count and (
            count >= config.max_batch_records
            or size + width > config.max_batch_bytes
        ):
            counts.append(count)
            count = size = 0
        count += 1
        size += width
    return counts + [count] if count else counts


_configs = st.builds(
    WireConfig,
    max_batch_records=st.integers(1, 9),
    max_batch_bytes=st.integers(8, 400),
    compress=st.booleans(),
    compress_min_bytes=st.sampled_from([0, 64]),
)


class TestColumnarFrames:
    @settings(max_examples=200, deadline=None)
    @given(_homogeneous(), st.booleans())
    def test_homogeneous_batch_round_trips_as_columns(self, pairs, compress):
        config = WireConfig(compress=compress, compress_min_bytes=0)
        batch = encode_frame([Record(k, v) for k, v in pairs], config)
        assert batch.frame[0] & FLAG_COLUMNAR
        decoded, end = decode_frame(batch.frame, make=entry_pair)
        assert end == len(batch.frame)
        assert _bits(decoded) == _bits(pairs)
        assert all(type(pair) is tuple for pair in decoded)
        records = decode_batch(batch, config)
        assert _bits((r.key, r.value) for r in records) == _bits(pairs)
        assert batch.count == len(pairs)

    @settings(max_examples=200, deadline=None)
    @given(_homogeneous(min_size=1), _POISON, st.data())
    def test_a_batch_that_cannot_be_columns_is_the_row_frame(
        self, pairs, poison, data
    ):
        where = data.draw(st.integers(0, len(pairs) - 1))
        key, value = pairs[where]
        pairs[where] = (poison, value) if data.draw(st.booleans()) else (key, poison)
        config = WireConfig(compress_min_bytes=0)
        try:
            want = _row_frame(pairs, config)
        except (SerializationError, UnicodeEncodeError) as exc:
            with pytest.raises(type(exc)):
                encode_frame([Record(k, v) for k, v in pairs], config)
            return
        batch = encode_frame([Record(k, v) for k, v in pairs], config)
        assert batch.frame == want
        assert not batch.frame[0] & FLAG_COLUMNAR

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(2, 12))
    def test_a_side_of_one_non_column_type_is_the_row_frame(self, data, size):
        # Every item of the side has one exact type, so only the type
        # (or an item's value) may keep the batch out of the columns.
        poison = data.draw(
            st.sampled_from([
                st.booleans(),
                st.just(_Colour.RED),
                st.text(max_size=10).map(_Word),
                st.integers(2**63, 2**77 - 1),
                st.integers(-(2**77 - 1), _INT64_MIN - 1),
                st.text(max_size=10).map(lambda text: "\x00" + text),
                st.none(),
            ])
        )
        column = data.draw(st.sampled_from(sorted(_column_items)))
        bad = data.draw(st.lists(poison, min_size=size, max_size=size))
        good = data.draw(
            st.lists(_column_items[column], min_size=size, max_size=size)
        )
        pairs = list(zip(bad, good) if data.draw(st.booleans()) else zip(good, bad))
        config = WireConfig(compress_min_bytes=0)
        batch = encode_frame([Record(k, v) for k, v in pairs], config)
        assert batch.frame == _row_frame(pairs, config)
        (batch,) = encode_record_batches([Record(k, v) for k, v in pairs], config)
        assert batch.frame == _row_frame(pairs, config)

    @pytest.mark.parametrize(
        "pairs",
        [[("a", 1)], [(1, 2.5)], [("", "")]],
        ids=["str-int", "int-float", "empty-str"],
    )
    def test_a_single_record_is_a_row_frame(self, pairs):
        config = WireConfig()
        assert encode_frame([Record(*pairs[0])], config).frame == _row_frame(
            pairs, config
        )

    @pytest.mark.parametrize(
        "text", ["\ud800", "lone \udfff", "\udc80\udc80"], ids=["hi", "lo", "two"]
    )
    @pytest.mark.parametrize("side", ["key", "value"])
    def test_lone_surrogates_fail_as_the_row_encoder_fails(self, text, side):
        pairs = [("k", "v"), (text, "v") if side == "key" else ("k", text)]
        with pytest.raises(UnicodeEncodeError):
            encode((pairs[1]))
        with pytest.raises(UnicodeEncodeError):
            encode_frame([Record(k, v) for k, v in pairs])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(_column_items["str"], _column_items["int"]),
                st.tuples(_column_items["int"], _column_items["str"]),
                st.tuples(_POISON, _column_items["int"]),
            ),
            max_size=40,
        ),
        _configs,
        st.data(),
    )
    def test_cut_rule_holds_and_pieces_cut_like_the_whole(
        self, pairs, config, data
    ):
        keys = [key for key, _ in pairs]
        values = [value for _, value in pairs]
        try:
            whole: list = []
            cut_frames(keys, values, config, whole)
        except SerializationError:
            return
        for batch in whole:
            assert batch.count <= config.max_batch_records
            assert batch.count == 1 or batch.raw_bytes <= config.max_batch_bytes
        assert whole == encode_record_batches(
            [Record(k, v) for k, v in pairs], config
        )
        # Handed over in pieces, as the map-side collector hands them.
        pieces: list = []
        open_keys: list = []
        open_values: list = []
        for key, value in pairs:
            open_keys.append(key)
            open_values.append(value)
            if data.draw(st.booleans()):
                used = cut_frames(open_keys, open_values, config, pieces, False)
                del open_keys[:used]
                del open_values[:used]
        assert cut_frames(open_keys, open_values, config, pieces) == len(open_keys)
        assert pieces == whole

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(_column_items["str"], _column_items["int"]),
                st.tuples(_column_items["int"], _column_items["str"]),
            ),
            max_size=20,
        ),
        _configs,
    )
    def test_row_streams_keep_the_row_cut_points(self, couples, config):
        # Neighbours never share a shape, so no frame can be columnar.
        pairs = [pair for couple in couples for pair in couple]
        batches = encode_record_batches(
            [Record(k, v) for k, v in pairs], config
        )
        assert [batch.count for batch in batches] == _row_cuts(pairs, config)
        offset = 0
        for batch in batches:
            assert batch.frame == _row_frame(
                pairs[offset : offset + batch.count], config
            )
            offset += batch.count

    def test_flag_0x02_is_known(self):
        # A columnar flag around a row payload: a column error, not an
        # unknown flag.
        payload = encode_pair("a", 1) + encode_pair("b", 2)
        frame = seal_frame(FLAG_COLUMNAR, 2, payload, len(payload)).frame
        with pytest.raises(SerializationError) as raised:
            decode_frame(frame)
        assert "unknown frame flags" not in str(raised.value)


#: Ints either side of every width edge, and the width that holds them.
_WIDTH_EDGES = {
    "int8-edges": ([-(2**7), 2**7 - 1, 0], 1),
    "int8-under": ([-(2**7) - 1, 0], 2),
    "int8-over": ([0, 2**7], 2),
    "int16-edges": ([-(2**15), 2**15 - 1, 0], 2),
    "int16-under": ([-(2**15) - 1, 0], 4),
    "int16-over": ([0, 2**15], 4),
    "int32-edges": ([-(2**31), 2**31 - 1, 0], 4),
    "int32-under": ([-(2**31) - 1, 0], 8),
    "int32-over": ([0, 2**31], 8),
    "int64-edges": ([_INT64_MIN, _INT64_MAX, -1, 0, 1], 8),
}

#: Lists of ints drawn around one width edge, the edges themselves on
#: purpose.
_near_an_edge = st.sampled_from([2**7, 2**15, 2**31, 2**63]).flatmap(
    lambda edge: st.lists(
        st.one_of(
            st.integers(max(-edge - 2, _INT64_MIN), min(edge + 1, _INT64_MAX)),
            st.sampled_from(
                [n for n in (edge - 1, edge, -edge, -edge - 1, 0)
                 if _INT64_MIN <= n <= _INT64_MAX]
            ),
        ),
        min_size=2,
        max_size=300,
    )
)


def _narrowest_tag(items) -> int:
    """The int column tag the width rule gives ``items``."""
    for width, tag in _PLANE_TAGS.items():
        bound = 1 << (8 * width - 1)
        if -bound <= min(items) and max(items) < bound:
            return tag
    raise AssertionError("outside int64")


def _column_tags(frame: bytes) -> tuple[int, int]:
    """The key and value column tags of an undeflated columnar frame."""
    _flags, _count, start, _stop = _header(frame)
    key_bytes, position = decode_varint(frame, start)
    return frame[position], frame[position + key_bytes]


def _int64_payload_bytes(count: int) -> int:
    """A two-int-column payload with both columns at 8 bytes an item."""
    column = 1 + 8 * count
    return len(encode_varint(column)) + 2 * column


def _int64_cuts(pairs, config: WireConfig) -> list[int]:
    """Frame sizes for int keys and one-type values when every int
    column is measured at 8 bytes an item, whatever its width."""
    counts: list[int] = []
    start = 0
    while start < len(pairs):
        count = 1
        while start + count < len(pairs) and count < config.max_batch_records:
            window = pairs[start : start + count + 1]
            key_size = 1 + 8 * len(window)
            values = [value for _, value in window]
            if type(values[0]) is str:
                value_size = 1 + len("\0".join(values).encode("utf-8"))
            else:
                value_size = 1 + 8 * len(window)
            size = len(encode_varint(key_size)) + key_size + value_size
            if size > config.max_batch_bytes:
                break
            count += 1
        counts.append(count)
        start += count
    return counts


class TestNarrowIntColumns:
    """An int column is its narrowest width, as byte planes; the cut
    rule measures it at int64 width all the same."""

    @pytest.mark.parametrize("name", sorted(_WIDTH_EDGES))
    @pytest.mark.parametrize("side", ["key", "value"])
    def test_width_edges_round_trip_at_the_narrowest_width(self, name, side):
        items, width = _WIDTH_EDGES[name]
        other = [f"s{i}" for i in range(len(items))]
        pairs = list(zip(items, other) if side == "key" else zip(other, items))
        batch = encode_frame(
            [Record(k, v) for k, v in pairs], WireConfig(compress=False)
        )
        tags = _column_tags(batch.frame)
        assert tags[0 if side == "key" else 1] == _PLANE_TAGS[width]
        decoded, end = decode_frame(batch.frame, make=entry_pair)
        assert end == len(batch.frame) and decoded == pairs
        index = 0 if side == "key" else 1
        assert all(type(pair[index]) is int for pair in decoded)

    @settings(max_examples=300, deadline=None)
    @given(_near_an_edge, st.booleans())
    def test_columns_near_an_edge_round_trip_and_are_never_wider(
        self, keys, compress
    ):
        values = keys[::-1]
        pairs = list(zip(keys, values))
        batch = encode_frame(
            [Record(k, v) for k, v in pairs],
            WireConfig(compress=compress, compress_min_bytes=0),
        )
        assert batch.frame[0] & FLAG_COLUMNAR
        decoded, _end = decode_frame(batch.frame, make=entry_pair)
        assert decoded == pairs
        assert all(type(k) is int and type(v) is int for k, v in decoded)
        assert batch.raw_bytes <= _int64_payload_bytes(len(pairs))
        plain = encode_frame(
            [Record(k, v) for k, v in pairs], WireConfig(compress=False)
        )
        assert _column_tags(plain.frame) == (
            _narrowest_tag(keys), _narrowest_tag(values)
        )

    @pytest.mark.parametrize(
        "constant", [0, 1, -1, 255, -(2**31), _INT64_MIN, _INT64_MAX]
    )
    @pytest.mark.parametrize("count", [2, 3, 256])
    @pytest.mark.parametrize("compress", [False, True])
    def test_all_equal_columns_take_the_width_rule(self, constant, count, compress):
        pairs = [(f"k{i}", constant) for i in range(count)]
        batch = encode_frame(
            [Record(k, v) for k, v in pairs],
            WireConfig(compress=compress, compress_min_bytes=0),
        )
        decoded, _end = decode_frame(batch.frame, make=entry_pair)
        assert decoded == pairs and all(type(v) is int for _k, v in decoded)
        records = decode_batch(batch, WireConfig())
        assert [(r.key, r.value) for r in records] == pairs
        plain = encode_frame(
            [Record(k, v) for k, v in pairs], WireConfig(compress=False)
        )
        tag = _narrowest_tag([constant])
        width = tag - 0x10
        _flags, _count, _start, stop = _header(plain.frame)
        # The value column closes the payload: one tag, then each of the
        # constant's bytes repeated once per item, plane by plane.
        little = constant.to_bytes(width, "little", signed=True)
        assert plain.frame[stop - 1 - width * count : stop] == bytes(
            (tag,)
        ) + b"".join(bytes((byte,)) * count for byte in little)
        both = encode_frame(
            [Record(constant, constant) for _ in range(count)],
            WireConfig(compress=False),
        )
        assert _column_tags(both.frame) == (tag, tag)
        assert decode_frame(both.frame, make=entry_pair)[0] == [
            (constant, constant)
        ] * count

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-128, 127),
                st.integers(-(2**40), 2**40),
                _column_items["int"],
            ),
            max_size=60,
        ),
        st.sampled_from(["int", "str"]),
        st.builds(
            WireConfig,
            max_batch_records=st.integers(1, 40),
            max_batch_bytes=st.integers(8, 600),
            compress=st.booleans(),
        ),
        st.data(),
    )
    def test_cut_rule_measures_int_columns_at_int64_width(
        self, keys, value_kind, config, data
    ):
        values = data.draw(
            st.lists(
                _column_items[value_kind], min_size=len(keys), max_size=len(keys)
            )
        )
        pairs = list(zip(keys, values))
        batches: list = []
        assert cut_frames(keys, values, config, batches) == len(pairs)
        assert [batch.count for batch in batches] == _int64_cuts(pairs, config)
        offset = 0
        for batch in batches:
            assert (batch.frame[0] & FLAG_COLUMNAR != 0) == (batch.count > 1)
            decoded = decode_batch(batch, config, make=entry_pair)
            assert decoded == pairs[offset : offset + batch.count]
            offset += batch.count


def _columns(key_column: bytes, value_column: bytes) -> bytes:
    return encode_varint(len(key_column)) + key_column + value_column


#: Two ints, 1 and 2, as one byte plane.
_INTS_2 = b"\x11\x01\x02"
_STRS_2 = b"\x06a\x00b"
#: Int column tag for each width: ``0x10`` plus the width in bytes.
_PLANE_TAGS = {width: 0x10 + width for width in (1, 2, 4, 8)}

#: CRC-valid columnar frames of two records whose payload is wrong.
_BAD_COLUMNS = {
    "unknown-key-tag": _columns(b"\x04" + bytes(16), _INTS_2),
    "unknown-value-tag": _columns(_INTS_2, b"\x07" + bytes(16)),
    "bool-tag": _columns(b"\x02", _INTS_2),
    # The int64 tag of the first columnar layout is not a column tag.
    "retired-int64-tag": _columns(b"\x03" + struct.pack("<2q", 1, 2), _INTS_2),
    # ``0x10`` (no width) is not a column tag: an all-equal int column
    # takes the width rule like any other.
    "no-width-key-tag": _columns(b"\x10" + bytes(8), _INTS_2),
    "no-width-value-tag": _columns(_STRS_2, b"\x10" + bytes(8)),
    **{
        f"width-{width}-tag": _columns(
            bytes((0x10 + width,)) + bytes(2 * width), _INTS_2
        )
        for width in (3, 5, 7, 9)
    },
    **{
        f"int{8 * width}-column-{edit}": _columns(
            bytes((tag,)) + bytes(2 * width + delta), _INTS_2
        )
        for width, tag in _PLANE_TAGS.items()
        for edit, delta in (("short", -1), ("long", 1))
    },
    **{
        f"int{8 * width}-value-column-{edit}": _columns(
            _STRS_2, bytes((tag,)) + bytes(2 * width + delta)
        )
        for width, tag in _PLANE_TAGS.items()
        for edit, delta in (("short", -1), ("long", 1))
    },
    "float-column-short": _columns(_INTS_2, b"\x05" + bytes(9)),
    "str-column-one-item": _columns(b"\x06ab", _INTS_2),
    "str-column-three-items": _columns(_STRS_2 + b"\x00c", _INTS_2),
    "str-column-bad-utf8": _columns(b"\x06\xff\x00\xfe", _INTS_2),
    "str-column-cut-utf8": _columns(_STRS_2, b"\x06\xc3\x00a"),
    "key-length-past-end": encode_varint(40) + _INTS_2 + _INTS_2,
    "key-length-zero": b"\x00" + _INTS_2,
    "no-value-column": _columns(_INTS_2, b""),
    "trailing-after-ints": _columns(_INTS_2, _INTS_2 + b"\x00"),
    "empty": b"",
    "varint-cut": b"\x80",
}


class TestMalformedColumns:
    @pytest.mark.parametrize("name", sorted(_BAD_COLUMNS))
    @pytest.mark.parametrize("deflate", [False, True])
    def test_sealed_bad_columns_are_serialization_errors(self, name, deflate):
        payload = _BAD_COLUMNS[name]
        if deflate:
            body, flags = zlib.compress(payload), FLAG_COLUMNAR | FLAG_COMPRESSED
        else:
            body, flags = payload, FLAG_COLUMNAR
        frame = seal_frame(flags, 2, body, len(payload)).frame
        for make in (Record, entry_pair):
            with pytest.raises(SerializationError):
                decode_frame(frame, make=make)
        with pytest.raises(SerializationError):
            list(read_frames(io.BytesIO(frame)))

    @pytest.mark.parametrize(
        "payload",
        [
            _columns(b"\x10" + bytes(8), b"\x10" + bytes(8)),
            _columns(_INTS_2, _INTS_2),
            _columns(b"\x18" + bytes(16), _STRS_2),
            _columns(_STRS_2, _STRS_2),
        ],
        ids=["two-no-width-tags", "int8-int8", "int64-str", "str-str"],
    )
    @pytest.mark.parametrize("count", [2**27, 2**40, 2**64])
    def test_a_huge_record_count_is_rejected_before_any_allocation(
        self, payload, count
    ):
        # A frame of a few dozen bytes must not make the decoder build a
        # list of the count its header claims.
        frame = seal_frame(FLAG_COLUMNAR, count, payload, len(payload)).frame
        assert len(frame) < 64
        with pytest.raises(SerializationError):
            decode_frame(frame, make=entry_pair)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_columns_must_match_the_header_count(self, count):
        payload = _columns(_STRS_2, _INTS_2)
        frame = seal_frame(FLAG_COLUMNAR, count, payload, len(payload)).frame
        with pytest.raises(SerializationError):
            decode_frame(frame, make=entry_pair)
        good = seal_frame(FLAG_COLUMNAR, 2, payload, len(payload)).frame
        assert decode_frame(good, make=entry_pair)[0] == [("a", 1), ("b", 2)]

    @pytest.mark.parametrize(
        "count, payload",
        [
            (1, _columns(b"\x18" + bytes(8), b"\x06v")),
            (1, _columns(b"\x06k", b"\x05" + bytes(8))),
            (1, _columns(b"\x06k", b"\x11\x00")),
            (0, _columns(b"\x11", b"\x05")),
        ],
        ids=["one-int-str", "one-str-float", "one-str-int8", "none"],
    )
    def test_fewer_than_two_records_are_never_columns(self, count, payload):
        # Consistent columns, but the encoder writes a frame of fewer
        # than two records as rows: any other spelling is malformed.
        frame = seal_frame(FLAG_COLUMNAR, count, payload, len(payload)).frame
        with pytest.raises(SerializationError, match="two or more"):
            decode_frame(frame)

    @settings(max_examples=300, deadline=None)
    @given(_homogeneous(), st.data())
    def test_sealed_mutated_columns_never_escape(self, pairs, data):
        config = WireConfig(compress=False)
        frame = encode_frame([Record(k, v) for k, v in pairs], config).frame
        _flags, count, start, stop = _header(frame)
        payload = bytearray(frame[start:stop])
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            where = data.draw(st.integers(min_value=0, max_value=len(payload)))
            edit = data.draw(st.sampled_from(["set", "insert", "delete"]))
            if edit == "insert" or where == len(payload):
                payload.insert(where, data.draw(st.integers(0, 255)))
            elif edit == "set":
                payload[where] = data.draw(st.integers(0, 255))
            else:
                del payload[where]
        mutated = seal_frame(FLAG_COLUMNAR, count, bytes(payload), 0).frame
        try:
            decoded, _end = decode_frame(mutated, make=entry_pair)
        except SerializationError:
            return
        assert len(decoded) == count

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=80), st.integers(min_value=0, max_value=12))
    def test_sealed_arbitrary_columns_never_escape(self, payload, count):
        frame = seal_frame(FLAG_COLUMNAR, count, payload, len(payload)).frame
        try:
            decoded, _end = decode_frame(frame)
        except SerializationError:
            return
        assert len(decoded) == count


def _header(frame: bytes) -> tuple[int, int, int, int]:
    count, position = decode_varint(frame, 1)
    length, position = decode_varint(frame, position)
    return frame[0], count, position, position + length
