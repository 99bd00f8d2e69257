"""Compact typed binary serialization (the Writable-format substrate).

Hadoop stores intermediate and container data in its own typed binary
format (Writables) rather than language-native pickling.  This module is
that substrate: a tagged, varint-framed encoding for the value shapes the
framework actually moves — ints, floats, strings, bytes, tuples/lists,
dicts and frozensets — with deterministic output (dict/set entries are
written in sorted order) so encodings are comparable and hashable.

Unlike ``pickle`` it is safe to decode untrusted data (no code
execution), and its compactness is testable: small ints cost 2 bytes.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Any, Callable, TypeVar

_T = TypeVar("_T")

# Type tags.
_NONE = 0x00
_FALSE = 0x01
_TRUE = 0x02
_INT_POS = 0x03
_INT_NEG = 0x04
_FLOAT = 0x05
_STR = 0x06
_BYTES = 0x07
_TUPLE = 0x08
_LIST = 0x09
_DICT = 0x0A
_FROZENSET = 0x0B


class SerializationError(ValueError):
    """Unsupported type or malformed byte stream."""


#: Containers may nest this deep and no deeper, on both sides: the decoder
#: recurses once per level, so without a cap a few kilobytes of nested
#: list heads (well inside any frame limit) end in ``RecursionError``
#: instead of :class:`SerializationError`; the encoder refuses the same
#: depth so nothing it accepts is undecodable.  Real traffic (rpc fields,
#: telemetry documents, checkpoint metadata) nests under ten levels.
MAX_DEPTH = 64

_FLOAT_STRUCT = struct.Struct(">d")

#: ``encode_varint(n)`` for every one-byte value, and the complete
#: encodings / heads built from them.  Most varints the framework writes
#: (small counts, short lengths) are one byte.
_VARINT_1 = tuple(bytes((n,)) for n in range(0x80))
_SMALL_INT = tuple(bytes((_INT_POS, n)) for n in range(0x80))
_SHORT_STR_HEAD = tuple(bytes((_STR, n)) for n in range(0x80))
#: Head of every ``(key, value)`` tuple: tag + ``varint(2)``.
_PAIR_HEAD = bytes((_TUPLE, 2))
_STR_TAG = bytes((_STR,))
_INT_POS_TAG = bytes((_INT_POS,))
_INT_NEG_TAG = bytes((_INT_NEG,))


def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint.

    The decoder caps varints at 11 bytes (77 payload bits) to bound work
    on malicious input, so the encoder must reject anything wider — an
    accepted-but-undecodable value would poison a frame permanently.
    """
    if 0 <= value < 0x80:
        return _VARINT_1[value]
    if value < 0:
        raise SerializationError("varints are unsigned")
    if value >> 77:
        raise SerializationError("varint too large (max 77 bits)")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns ``(value, next_offset)``."""
    if offset < len(data):
        byte = data[offset]
        if byte < 0x80:
            return byte, offset + 1
    result = 0
    shift = 0
    position = offset
    while True:
        if position >= len(data):
            raise SerializationError("truncated varint")
        byte = data[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7
        if shift > 70:
            raise SerializationError("varint too long")


def encode(obj: Any) -> bytes:
    """Serialise one value to tagged bytes."""
    out = bytearray()
    _encode_into(obj, out, 0)
    return bytes(out)


def _encode_side(obj: Any) -> bytes:
    """One half of a pair: ``encode(obj)``, one container level down.

    An *exact* ``str`` or ``int`` is put together from the pre-built
    heads.  Dispatch is on ``type(obj) is ...``, so ``bool``, ``IntEnum``
    and ``str`` subclasses never match and, like every other shape, go
    through the general encoder as they always have.
    """
    kind = type(obj)
    if kind is str:
        payload = obj.encode("utf-8")
        length = len(payload)
        if length < 0x80:
            return _SHORT_STR_HEAD[length] + payload
        return _STR_TAG + encode_varint(length) + payload
    if kind is int:
        if 0 <= obj < 0x80:
            return _SMALL_INT[obj]
        if obj > 0:
            return _INT_POS_TAG + encode_varint(obj)
        return _INT_NEG_TAG + encode_varint(-obj)
    out = bytearray()
    _encode_into(obj, out, 1)
    return bytes(out)


def encode_pair(key: Any, value: Any) -> bytes:
    """Exactly ``encode((key, value))`` — the shuffle's per-record encoder.

    The tuple head is a constant; word counts, line numbers, text keys
    and lines take :func:`_encode_side`'s table-driven paths.
    """
    return _PAIR_HEAD + _encode_side(key) + _encode_side(value)


def _encode_into(obj: Any, out: bytearray, depth: int) -> None:
    if obj is None:
        out.append(_NONE)
    elif obj is True:
        out.append(_TRUE)
    elif obj is False:
        out.append(_FALSE)
    elif isinstance(obj, int):
        if obj >= 0:
            out.append(_INT_POS)
            out += encode_varint(obj)
        else:
            out.append(_INT_NEG)
            out += encode_varint(-obj)
    elif isinstance(obj, float):
        out.append(_FLOAT)
        out += _FLOAT_STRUCT.pack(obj)
    elif isinstance(obj, str):
        payload = obj.encode("utf-8")
        out.append(_STR)
        out += encode_varint(len(payload))
        out += payload
    elif isinstance(obj, bytes):
        out.append(_BYTES)
        out += encode_varint(len(obj))
        out += obj
    elif isinstance(obj, (tuple, list, dict, frozenset)):
        if depth >= MAX_DEPTH:
            raise SerializationError(f"nesting deeper than {MAX_DEPTH}")
        depth += 1
        if isinstance(obj, tuple):
            out.append(_TUPLE)
            out += encode_varint(len(obj))
            for item in obj:
                _encode_into(item, out, depth)
        elif isinstance(obj, list):
            out.append(_LIST)
            out += encode_varint(len(obj))
            for item in obj:
                _encode_into(item, out, depth)
        elif isinstance(obj, dict):
            out.append(_DICT)
            out += encode_varint(len(obj))
            # Entries go out ordered by the key's encoding.  Encode each
            # key once and sort those bytes (stably, on the key alone:
            # two NaN keys encode alike and must keep insertion order).
            entries = []
            for key, value in obj.items():
                encoded = bytearray()
                _encode_into(key, encoded, depth)
                entries.append((encoded, value))
            entries.sort(key=itemgetter(0))
            for encoded, value in entries:
                out += encoded
                _encode_into(value, out, depth)
        else:
            out.append(_FROZENSET)
            out += encode_varint(len(obj))
            members = []
            for item in obj:
                encoded = bytearray()
                _encode_into(item, encoded, depth)
                members.append(encoded)
            members.sort()
            for encoded in members:
                out += encoded
    else:
        raise SerializationError(f"unsupported type: {type(obj).__name__}")


def decode(data: bytes) -> Any:
    """Deserialise one value; rejects trailing garbage."""
    obj, offset = decode_at(data, 0)
    if offset != len(data):
        raise SerializationError(f"{len(data) - offset} trailing bytes")
    return obj


def decode_at(data: bytes, offset: int) -> tuple[Any, int]:
    """Deserialise the value at ``offset``; returns ``(value, next)``.

    Every malformed input raises :class:`SerializationError` — invalid
    UTF-8, unhashable dict keys or set members and nesting past
    :data:`MAX_DEPTH` included, none of which a checksum can catch.
    """
    return _decode_at(data, offset, 0)


def _decode_at(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise SerializationError("truncated stream")
    tag = data[offset]
    offset += 1
    if tag == _NONE:
        return None, offset
    if tag == _TRUE:
        return True, offset
    if tag == _FALSE:
        return False, offset
    if tag == _INT_POS:
        return decode_varint(data, offset)
    if tag == _INT_NEG:
        value, offset = decode_varint(data, offset)
        return -value, offset
    if tag == _FLOAT:
        if offset + 8 > len(data):
            raise SerializationError("truncated float")
        return _FLOAT_STRUCT.unpack_from(data, offset)[0], offset + 8
    if tag == _STR or tag == _BYTES:
        length, offset = decode_varint(data, offset)
        end = offset + length
        if end > len(data):
            raise SerializationError("truncated payload")
        payload = data[offset:end]
        if tag == _BYTES:
            return payload, end
        try:
            return payload.decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise SerializationError(f"invalid UTF-8 in string: {exc}") from exc
    if tag > _FROZENSET:
        raise SerializationError(f"unknown tag 0x{tag:02x}")
    if depth >= MAX_DEPTH:
        raise SerializationError(f"nesting deeper than {MAX_DEPTH}")
    depth += 1
    length, offset = decode_varint(data, offset)
    if tag == _DICT:
        result = {}
        for _ in range(length):
            key, offset = _decode_at(data, offset, depth)
            value, offset = _decode_at(data, offset, depth)
            try:
                result[key] = value
            except TypeError as exc:
                raise SerializationError(f"unhashable dict key: {exc}") from exc
        return result, offset
    items = []
    for _ in range(length):
        item, offset = _decode_at(data, offset, depth)
        items.append(item)
    if tag == _TUPLE:
        return tuple(items), offset
    if tag == _LIST:
        return items, offset
    try:
        return frozenset(items), offset
    except TypeError as exc:
        raise SerializationError(f"unhashable set member: {exc}") from exc


def decode_pairs(data: bytes, make: Callable[[Any, Any], _T]) -> list[_T]:
    """Decode back-to-back ``(key, value)`` encodings, all of ``data``.

    The shuffle's per-record decoder: equal to calling :func:`decode_at`
    until ``data`` is used up, requiring each value to be a 2-tuple and
    handing its halves to ``make`` (so no intermediate tuple list).
    Short strings and one-byte ints are read in line — the loop is
    written out for key and value because a call per side is what it
    saves — and every other shape, and every error, is
    :func:`decode_at`'s.
    """
    out: list[_T] = []
    offset = 0
    end = len(data)
    try:
        while offset < end:
            if data[offset] != _TUPLE or data[offset + 1] != 2:
                # Not the two bytes the encoder writes: a non-pair, or a
                # pair with a padded count varint.  Let the general
                # decoder say which.
                entry, offset = _decode_at(data, offset, 0)
                if not isinstance(entry, tuple) or len(entry) != 2:
                    raise SerializationError(f"entry is not a pair: {entry!r}")
                out.append(make(*entry))
                continue
            offset += 2
            tag = data[offset]
            if tag == _STR:
                length = data[offset + 1]
                stop = offset + 2 + length
                if length < 0x80 and stop <= end:
                    key = str(data[offset + 2 : stop], "utf-8")
                    offset = stop
                else:
                    key, offset = _decode_at(data, offset, 1)
            elif tag == _INT_POS and data[offset + 1] < 0x80:
                key = data[offset + 1]
                offset += 2
            else:
                key, offset = _decode_at(data, offset, 1)
            tag = data[offset]
            if tag == _STR:
                length = data[offset + 1]
                stop = offset + 2 + length
                if length < 0x80 and stop <= end:
                    value = str(data[offset + 2 : stop], "utf-8")
                    offset = stop
                else:
                    value, offset = _decode_at(data, offset, 1)
            elif tag == _INT_POS and data[offset + 1] < 0x80:
                value = data[offset + 1]
                offset += 2
            else:
                value, offset = _decode_at(data, offset, 1)
            out.append(make(key, value))
    except IndexError:
        # Only the in-line reads index without a bounds check.
        raise SerializationError("truncated stream") from None
    except UnicodeDecodeError as exc:
        raise SerializationError(f"invalid UTF-8 in string: {exc}") from exc
    return out
