"""Tests for the typed binary serialization substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfs.serialization import (
    MAX_DEPTH,
    SerializationError,
    decode,
    decode_varint,
    encode,
    encode_varint,
)


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**31, 2**62])
    def test_roundtrip(self, value):
        data = encode_varint(value)
        decoded, offset = decode_varint(data)
        assert decoded == value
        assert offset == len(data)

    def test_small_values_one_byte(self):
        assert len(encode_varint(0)) == 1
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            encode_varint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(SerializationError):
            decode_varint(b"\x80")  # continuation bit with no next byte

    @given(st.integers(min_value=0, max_value=2**64))
    def test_property_roundtrip(self, value):
        decoded, _ = decode_varint(encode_varint(value))
        assert decoded == value


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "obj",
        [
            None, True, False, 0, 1, -1, 10**18, -(10**18),
            0.0, 3.14159, float("inf"), -2.5e-300,
            "", "hello", "ünïcode ✓", b"", b"\x00\xff raw",
            (), (1, "two", 3.0), [1, [2, [3]]],
            {"a": 1, "b": [2, 3]}, frozenset({1, 2, 3}),
            ("word", 1), (("doc1", 3), ("doc2", 7)),
        ],
    )
    def test_roundtrip(self, obj):
        assert decode(encode(obj)) == obj

    def test_nan_roundtrip(self):
        import math

        assert math.isnan(decode(encode(float("nan"))))

    def test_compact_small_ints(self):
        assert len(encode(5)) == 2  # tag + varint

    def test_deterministic_dicts(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert encode(a) == encode(b)

    def test_deterministic_frozensets(self):
        assert encode(frozenset({3, 1, 2})) == encode(frozenset({2, 3, 1}))

    def test_unsupported_type_rejected(self):
        with pytest.raises(SerializationError):
            encode(object())

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SerializationError):
            decode(encode(1) + b"junk")

    def test_truncated_rejected(self):
        payload = encode("a long enough string")
        with pytest.raises(SerializationError):
            decode(payload[:-3])

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            decode(b"\xfe")

    @pytest.mark.parametrize(
        "data",
        [
            b"\x06\x02\xff\xfe",  # str: invalid UTF-8
            b"\x06\x01\xc3",  # str: cut inside a two-byte sequence
            b"\x0a\x01\x09\x00\x00",  # dict keyed by a list
            b"\x0a\x01\x08\x01\x09\x00\x00",  # ... by a tuple holding one
            b"\x0b\x01\x09\x00",  # frozenset of a list
            b"\x0b\x01\x0a\x00",  # frozenset of a dict
        ],
    )
    def test_malformed_values_are_serialization_errors(self, data):
        # Bytes a checksum cannot object to; a receive loop catches
        # SerializationError and nothing else.
        with pytest.raises(SerializationError):
            decode(data)

    def test_nesting_is_capped_on_both_sides(self):
        def nest(depth):
            value = "leaf"
            for _ in range(depth):
                value = [value]
            return value

        assert decode(encode(nest(MAX_DEPTH))) == nest(MAX_DEPTH)
        with pytest.raises(SerializationError, match="nesting"):
            encode(nest(MAX_DEPTH + 1))
        with pytest.raises(SerializationError, match="nesting"):
            decode(b"\x09\x01" * (MAX_DEPTH + 1) + b"\x00")
        # Far past the interpreter's own limit: still the typed error.
        with pytest.raises(SerializationError, match="nesting"):
            decode(b"\x09\x01" * 50_000 + b"\x00")
        with pytest.raises(SerializationError, match="nesting"):
            encode({"k": nest(MAX_DEPTH)})

    def test_dict_and_set_order_is_by_encoded_key(self):
        # Sorted by the key's *encoding* (tag first), not by the key.
        assert encode({"b": 1, 2: 2, "a": 3}) == (
            b"\x0a\x03" + encode(2) + encode(2)
            + encode("a") + encode(3) + encode("b") + encode(1)
        )
        assert encode(frozenset({"b", 2, "a"})) == (
            b"\x0b\x03" + encode(2) + encode("a") + encode("b")
        )
        nan_a, nan_b = float("nan"), float("nan")
        assert encode({nan_a: "first", nan_b: "second"}) == (
            b"\x0a\x02" + encode(nan_a) + encode("first")
            + encode(nan_b) + encode("second")
        )


# Recursive value strategy matching the supported shapes.
values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.tuples(children, children)
    | st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(values)
def test_property_roundtrip_arbitrary_values(obj):
    assert decode(encode(obj)) == obj
