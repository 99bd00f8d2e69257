"""Property-based fuzzing of the shuffle wire codec (repro.dfs.wire).

The invariants under test are the ones the shuffle's correctness rests
on: every encodable record batch round-trips bit-exactly through a frame
(nested containers, unicode edge cases, varint-boundary counts included),
and every malformed frame — truncated anywhere, corrupted anywhere —
raises :class:`SerializationError` instead of decoding garbage.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Record
from repro.dfs.serialization import SerializationError
from repro.dfs.wire import (
    WireConfig,
    decode_batch,
    decode_batches,
    decode_frame,
    encode_frame,
    encode_record_batches,
    read_frames,
    write_batch,
)
from repro.memory.checkpoint import encode_entry_frame

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


class TestMalformedFrames:
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
