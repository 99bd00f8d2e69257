"""Framed batch codec: the one format of every intermediate byte.

Hadoop moves intermediate data as length-framed, optionally compressed
record batches (IFile segments on the map side, the shuffle HTTP stream
on the reduce side), not as language-native objects.  This module is the
equivalent substrate for the repro engines: record batches are encoded
with the typed serialization in :mod:`repro.dfs.serialization` (or, for
a batch of one exact type per side, as two typed columns), framed with
varint headers, optionally zlib-deflated per batch, and sealed with a
CRC32 trailer so corruption and truncation are detected before any
payload is interpreted.  Shuffled batches, streaming journals, map-side
spill runs, store spill runs, kvstore logs and checkpoints are all these
frames, and nothing else: a value the typed codec cannot express fails
where it is first written, with :class:`SerializationError`.

Frame layout (all integers are LEB128 varints except the fixed trailer)::

    +-------+--------------+---------------+-----------+------------+
    | flags | record_count | payload_bytes |  payload  | CRC32 (4B) |
    +-------+--------------+---------------+-----------+------------+

- ``flags`` — one byte.  Bit 0 (:data:`FLAG_COMPRESSED`): payload is
  zlib-deflated.  Bit 1 (:data:`FLAG_COLUMNAR`): payload is columnar.
  All other bits must be zero; a frame with any of them set is rejected.
- ``payload`` — a *row* payload is the concatenation of
  ``serialization.encode((key, value))`` for each record.  A *columnar*
  payload is a varint giving the key column's length in bytes, the key
  column, then the value column (to the end of the payload).  A column
  is one tag byte and a body: ``0x05`` (float) and a little-endian
  ``array('d')``, ``0x06`` (str) and the strings' UTF-8 joined by NUL
  bytes, or an int column.  An int column is written at the narrowest
  signed width ``w`` of 1, 2, 4 or 8 bytes that holds its min..max,
  under tag ``0x10 + w``, as byte planes: every item's first (least
  significant) byte, then every item's second byte, and so on.
  Every column holds exactly ``record_count`` items.
- ``CRC32`` — big-endian ``zlib.crc32`` over everything before it
  (header *and* payload), so a flipped bit anywhere in the frame fails
  before decoding starts.

A frame is columnar exactly when it holds two or more records, every
key has one exact type, every value has one exact type, and each of
those types is ``int`` (every item within int64), ``float`` or ``str``
(no item holding a NUL, every item encodable as UTF-8).  Everything else
— mixed types, ``bool``, ``IntEnum``, ``str`` / ``int`` subclasses,
ints outside int64, single-record frames — is a row frame, byte for byte
what it was before columns existed.  The choice is made per frame by
:func:`seal_pairs`, the one function every frame is sealed through; it
has no knob.

Compression is applied per batch and only kept when it actually shrinks
the payload, so ``shuffle.bytes.raw >= shuffle.bytes.wire`` always holds.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence

from repro.core.types import Record
from repro.dfs.serialization import (
    SerializationError,
    decode_pairs,
    decode_varint,
    encode_pair,
    encode_varint,
)

#: Payload is zlib-deflated.
FLAG_COMPRESSED = 0x01
#: Payload is a key column and a value column, not a run of pairs.
FLAG_COLUMNAR = 0x02

_KNOWN_FLAGS = FLAG_COMPRESSED | FLAG_COLUMNAR
_CRC = struct.Struct(">I")
#: flags byte + two varints of at most 11 bytes each.
_MAX_HEADER_BYTES = 23
#: How much :func:`read_frames` asks its stream for at a time.
_READ_BYTES = 64 * 1024

#: Counter names the codec accounts under (see docs/shuffle-wire.md).
RAW_BYTES_COUNTER = "shuffle.bytes.raw"
WIRE_BYTES_COUNTER = "shuffle.bytes.wire"
BATCHES_COUNTER = "shuffle.batches"


@dataclass(frozen=True)
class WireConfig:
    """Knobs for the wire format: where frames are cut and whether they
    are deflated.

    There is no "off": wherever a ``wire`` argument is ``None`` it means
    ``WireConfig()``.
    """

    max_batch_records: int = 256
    max_batch_bytes: int = 64 * 1024
    compress: bool = True
    compress_min_bytes: int = 64

    def __post_init__(self) -> None:
        if self.max_batch_records <= 0:
            raise ValueError("max_batch_records must be positive")
        if self.max_batch_bytes <= 0:
            raise ValueError("max_batch_bytes must be positive")
        if self.compress_min_bytes < 0:
            raise ValueError("compress_min_bytes must be non-negative")


@dataclass(frozen=True)
class WireBatch:
    """One encoded record batch: the frame plus its accounting.

    ``len(batch)`` is the record count, which is all the fetch protocol
    reads of a batch (``FetchLedger`` sequencing, dedup accounting).
    """

    frame: bytes
    count: int
    raw_bytes: int

    def __len__(self) -> int:
        return self.count

    @property
    def wire_bytes(self) -> int:
        """Bytes this batch occupies on the wire (whole frame)."""
        return len(self.frame)


# ---------------------------------------------------------------------------
# frame encode / decode
# ---------------------------------------------------------------------------


def encode_frame(
    records: Sequence[Record], config: WireConfig | None = None
) -> WireBatch:
    """Encode one record batch into a framed :class:`WireBatch`."""
    config = config if config is not None else WireConfig()
    return seal_pairs(
        [record.key for record in records],
        [record.value for record in records],
        config,
    )


def seal_pairs(
    keys: Sequence[Any], values: Sequence[Any], config: WireConfig
) -> WireBatch:
    """Seal ``zip(keys, values)`` as one frame: the one framing function.

    Columnar when the pairs qualify (see the module docstring), rows
    otherwise; deflated if that helps.
    """
    columns = _columnar(keys, values)
    if columns is not None:
        return _seal(FLAG_COLUMNAR, len(keys), columns[0], config)
    return _seal(0, len(keys), b"".join(map(encode_pair, keys, values)), config)


def _seal(
    flags: int, count: int, payload: bytes, config: WireConfig
) -> WireBatch:
    raw_bytes = len(payload)
    if config.compress and raw_bytes >= config.compress_min_bytes:
        deflated = zlib.compress(payload)
        if len(deflated) < raw_bytes:
            payload = deflated
            flags |= FLAG_COMPRESSED
    return seal_frame(flags, count, payload, raw_bytes)


def seal_frame(
    flags: int, count: int, payload: bytes, raw_bytes: int
) -> WireBatch:
    """Put header and CRC trailer around an already-encoded payload."""
    header = bytes((flags,)) + encode_varint(count) + encode_varint(len(payload))
    crc = zlib.crc32(payload, zlib.crc32(header))
    frame = b"".join((header, payload, _CRC.pack(crc)))
    return WireBatch(frame=frame, count=count, raw_bytes=raw_bytes)


# ---------------------------------------------------------------------------
# columns
# ---------------------------------------------------------------------------

#: Column tags.  Float and str columns carry the typed codec's own tags.
_FLOAT64 = 0x05
_UTF8 = 0x06
#: Int column tag (``0x10`` plus the width) -> ``(width, array code)``,
#: narrowest first.
_PLANE_CODES = {0x11: (1, "b"), 0x12: (2, "h"), 0x14: (4, "i"), 0x18: (8, "q")}
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
#: Column bodies are little-endian whatever the host's byte order.
_SWAP = sys.byteorder == "big"


def _column(items: Sequence[Any]) -> bytes | None:
    """One column (tag and body) for ``items``, or ``None`` if they are
    not all one column type."""
    kinds = set(map(type, items))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is int:
        return _int_column(items)
    if kind is str:
        text = "\0".join(items)
        if text.count("\0") != len(items) - 1:
            return None
        try:
            return bytes((_UTF8,)) + text.encode("utf-8")
        except UnicodeEncodeError:
            return None
    if kind is not float:
        return None
    column = array("d", items)
    if _SWAP:
        column.byteswap()
    return bytes((_FLOAT64,)) + column.tobytes()


def _int_column(items: Sequence[int]) -> bytes | None:
    """An int column at the narrowest width that holds ``items``' range,
    as byte planes; ``None`` if an item is outside int64."""
    low = min(items)
    high = max(items)
    for tag, (width, code) in _PLANE_CODES.items():
        bound = 1 << (8 * width - 1)
        if -bound <= low and high < bound:
            break
    else:
        return None
    column = array(code, items)
    if _SWAP:
        column.byteswap()
    data = column.tobytes()
    return bytes((tag,)) + b"".join(
        data[plane::width] for plane in range(width)
    )


def _measure(column: bytes, count: int) -> int:
    """What the cut rule charges for a column of ``count`` items: its
    length, an int column counted at 8 bytes an item whatever its width."""
    return len(column) if column[0] == _UTF8 else 1 + 8 * count


def _columnar(
    keys: Sequence[Any], values: Sequence[Any]
) -> tuple[bytes, int] | None:
    """The columnar payload for these pairs and its size as the cut rule
    measures it, or ``None`` if they do not qualify (fewer than two, or
    either side not one column type)."""
    count = len(keys)
    if count < 2:
        return None
    key_column = _column(keys)
    if key_column is None:
        return None
    value_column = _column(values)
    if value_column is None:
        return None
    key_size = _measure(key_column, count)
    size = (
        len(encode_varint(key_size)) + key_size + _measure(value_column, count)
    )
    return encode_varint(len(key_column)) + key_column + value_column, size


def _column_cost(item: Any, kind: type) -> int | None:
    """Bytes the cut rule charges ``item`` in a column of ``kind`` (a
    ``str`` counts its NUL separator, an int its int64 width), or
    ``None`` if it cannot join one."""
    if type(item) is not kind:
        return None
    if kind is str:
        if "\0" in item:
            return None
        try:
            return len(item.encode("utf-8")) + 1
        except UnicodeEncodeError:
            return None
    if kind is int:
        return 8 if _INT64_MIN <= item <= _INT64_MAX else None
    return 8 if kind is float else None


def _decode_columns(payload: bytes, count: int) -> tuple[list[Any], list[Any]]:
    """Split a columnar payload back into its key and value lists."""
    if count < 2:
        raise SerializationError(
            f"columnar frame must hold two or more records, not {count}"
        )
    key_bytes, start = decode_varint(payload, 0)
    split = start + key_bytes
    if key_bytes == 0 or split >= len(payload):
        raise SerializationError("truncated column")
    return (
        _decode_column(payload, start, split, count),
        _decode_column(payload, split, len(payload), count),
    )


def _decode_column(payload: bytes, start: int, stop: int, count: int) -> list[Any]:
    tag = payload[start]
    body = payload[start + 1 : stop]
    if tag == _UTF8:
        try:
            items = str(body, "utf-8").split("\0")
        except UnicodeDecodeError as exc:
            raise SerializationError(f"invalid UTF-8 in column: {exc}") from exc
    elif tag == _FLOAT64 or tag in _PLANE_CODES:
        width, code = (8, "d") if tag == _FLOAT64 else _PLANE_CODES[tag]
        if len(body) != width * count:
            raise SerializationError(
                f"column of {len(body)} bytes for {count} records"
            )
        if tag != _FLOAT64 and width > 1:
            # Re-interleave the planes: one slice assignment per plane.
            interleaved = bytearray(len(body))
            for plane in range(width):
                interleaved[plane::width] = body[
                    plane * count : (plane + 1) * count
                ]
            body = interleaved
        column = array(code)
        column.frombytes(body)
        if _SWAP:
            column.byteswap()
        items = column.tolist()
    else:
        raise SerializationError(f"unknown column tag 0x{tag:02x}")
    if len(items) != count:
        raise SerializationError(
            f"column holds {len(items)} items, header says {count}"
        )
    return items


def _frame_header(data: bytes, offset: int) -> tuple[int, int, int, int]:
    """Parse a frame's header: ``(flags, count, payload_start, payload_end)``."""
    if offset >= len(data):
        raise SerializationError("truncated frame: missing flags byte")
    flags = data[offset]
    if flags & ~_KNOWN_FLAGS:
        raise SerializationError(f"unknown frame flags 0x{flags:02x}")
    count, position = decode_varint(data, offset + 1)
    payload_len, position = decode_varint(data, position)
    return flags, count, position, position + payload_len


def frame_size(data: bytes, offset: int = 0) -> int:
    """Length of the frame at ``offset``, CRC included, from its header.

    Reads only the header (raising :class:`SerializationError` if that is
    malformed or cut short), so a reader handed a length from outside the
    frame can check it before waiting for the payload.
    """
    _flags, _count, _start, stop = _frame_header(data, offset)
    return stop + _CRC.size - offset


def decode_frame(
    data: bytes,
    offset: int = 0,
    *,
    make: Callable[[Any, Any], Any] = Record,
) -> tuple[list[Any], int]:
    """Decode one frame at ``offset``; returns ``(records, next_offset)``.

    Every malformed input — truncation, unknown flags, bad CRC, payload
    that does not decode to exactly ``record_count`` key/value tuples,
    a column that is cut short, overlong, of an unknown tag or not
    UTF-8 — raises :class:`SerializationError`.  Each entry is built by
    ``make(key, value)``: a :class:`Record` for the shuffle, whatever
    pair shape a store file's reader wants.
    """
    flags, count, start, stop = _frame_header(data, offset)
    end = stop + _CRC.size
    if end > len(data):
        raise SerializationError("truncated frame: payload or CRC missing")
    # Checksum and inflate straight from the caller's buffer; the one
    # copy made is the payload the record decoder indexes (always
    # ``bytes``, whatever buffer type came in).
    view = memoryview(data)
    actual = zlib.crc32(view[offset:stop])
    (expected,) = _CRC.unpack_from(data, stop)
    if actual != expected:
        raise SerializationError(
            f"frame CRC mismatch: got 0x{actual:08x}, want 0x{expected:08x}"
        )
    if flags & FLAG_COMPRESSED:
        try:
            payload = zlib.decompress(view[start:stop])
        except zlib.error as exc:
            raise SerializationError(f"bad compressed payload: {exc}") from exc
    else:
        payload = bytes(view[start:stop])
    if flags & FLAG_COLUMNAR:
        keys, values = _decode_columns(payload, count)
        if make is entry_pair:
            return list(zip(keys, values)), end
        return list(map(make, keys, values)), end
    records = decode_pairs(payload, make)
    if len(records) != count:
        raise SerializationError(
            f"frame record count mismatch: header says {count}, "
            f"payload holds {len(records)}"
        )
    return records, end


def entry_pair(key: Any, value: Any) -> tuple[Any, Any]:
    """The pair ``make``: entries come back as plain ``(key, value)`` tuples.

    What store files are read with, and what barrier-less reduce input is
    decoded with — no :class:`Record` between the frame and the fold.
    """
    return key, value


def decode_batch(
    batch: WireBatch,
    config: WireConfig,
    make: Callable[[Any, Any], Any] = Record,
) -> list[Any]:
    """Decode one :class:`WireBatch` back into records (``make``'s shape)."""
    records, end = decode_frame(batch.frame, make=make)
    if end != len(batch.frame):
        raise SerializationError(f"{len(batch.frame) - end} trailing bytes")
    return records


def decode_batches(
    batches: Iterable[WireBatch], config: WireConfig
) -> list[Record]:
    """Decode a sequence of batches into one flat record list."""
    records: list[Record] = []
    for batch in batches:
        records.extend(decode_batch(batch, config))
    return records


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def encode_record_batches(
    records: Iterable[Record], config: WireConfig
) -> list[WireBatch]:
    """Split ``records`` into framed batches under the config's limits
    (:func:`cut_frames`' rule)."""
    keys: list[Any] = []
    values: list[Any] = []
    for record in records:
        keys.append(record.key)
        values.append(record.value)
    batches: list[WireBatch] = []
    cut_frames(keys, values, config, batches)
    return batches


def cut_frames(
    keys: list[Any],
    values: list[Any],
    config: WireConfig,
    out: list[WireBatch],
    final: bool = True,
) -> int:
    """Seal frames off the front of ``keys`` / ``values`` into ``out``;
    returns how many pairs they hold.

    A frame takes the next pair while it holds fewer than
    ``max_batch_records`` and its *raw* (pre-compression) payload, in the
    layout it would be sealed in, measures within ``max_batch_bytes``;
    its first pair always joins, so a pair larger than the limit travels
    alone and boundaries never depend on compression.  The measure is
    the payload's length, except that an int column counts 8 bytes an
    item, the int64 width: an upper bound on the narrow column actually
    written, so a boundary never depends on the range of a window's
    ints, and both measuring paths (the whole window at once, and
    :func:`_front_frame` pair by pair) agree.  Each frame's end
    depends only on the pairs up to the one that did not fit, so pairs
    may be handed over in pieces: with ``final`` false, a last frame that
    more pairs could still join is left unsealed (and uncounted) for the
    next call.
    """
    max_records = config.max_batch_records
    max_bytes = config.max_batch_bytes
    total = len(keys)
    start = 0
    while start < total:
        stop = min(start + max_records, total)
        closed = final or stop - start == max_records
        window_keys = keys[start:stop]
        window_values = values[start:stop]
        columns = _columnar(window_keys, window_values)
        if columns is not None and columns[1] <= max_bytes:
            # Every shorter prefix is columnar and measures less: one frame.
            if not closed:
                break
            out.append(_seal(FLAG_COLUMNAR, stop - start, columns[0], config))
            start = stop
            continue
        count, flags, payload = _front_frame(
            window_keys, window_values, max_bytes
        )
        if count == stop - start and not closed:
            break
        out.append(_seal(flags, count, payload, config))
        start += count
    return start


def _front_frame(
    keys: list[Any], values: list[Any], max_bytes: int
) -> tuple[int, int, bytes]:
    """The frame the cut rule takes off the front of a window:
    ``(count, flags, payload)``.

    Walks the window pair by pair.  While every pair so far can join a
    column the prefix is measured as columns (tags, bodies, the key
    column's length varint; ints at 8 bytes, as :func:`cut_frames`
    says); from the first pair that cannot, it is
    measured as rows, each pair encoded once and its bytes kept for the
    payload.
    """
    key_kind = type(keys[0])
    value_kind = type(values[0])
    key_bytes = _column_cost(keys[0], key_kind)
    value_bytes = _column_cost(values[0], value_kind)
    #: How many leading pairs can be columns.
    columns = int(key_bytes is not None and value_bytes is not None)
    rows: list[bytes] = []
    row_bytes = 0
    count = len(keys)
    for index in range(1, count):
        if columns == index:
            key_cost = _column_cost(keys[index], key_kind)
            value_cost = _column_cost(values[index], value_kind)
            if key_cost is not None and value_cost is not None:
                columns += 1
                key_bytes += key_cost
                value_bytes += value_cost
        if columns > index:
            key_column = 1 + key_bytes - (key_kind is str)
            size = (
                len(encode_varint(key_column))
                + key_column
                + 1
                + value_bytes
                - (value_kind is str)
            )
        else:
            while len(rows) <= index:
                row = encode_pair(keys[len(rows)], values[len(rows)])
                rows.append(row)
                row_bytes += len(row)
            size = row_bytes
        if size > max_bytes:
            count = index
            break
    if 1 < count <= columns:
        payload, _size = _columnar(keys[:count], values[:count])
        return count, FLAG_COLUMNAR, payload
    while len(rows) < count:
        rows.append(encode_pair(keys[len(rows)], values[len(rows)]))
    return count, 0, b"".join(rows[:count])


def account_batches(counters: Any, batches: Sequence[WireBatch]) -> None:
    """Fold a batch list's byte/count totals into a counter registry.

    Always increments all three ``shuffle.*`` wire counters (possibly by
    zero) so counter dictionaries stay key-identical across engines no
    matter how records landed in partitions.
    """
    counters.increment(RAW_BYTES_COUNTER, sum(b.raw_bytes for b in batches))
    counters.increment(
        WIRE_BYTES_COUNTER, sum(b.wire_bytes for b in batches)
    )
    counters.increment(BATCHES_COUNTER, len(batches))


def compression_ratio(counters: Any) -> float:
    """``wire / raw`` bytes from a counter registry (0.0 before data)."""
    raw = counters.get(RAW_BYTES_COUNTER)
    if not raw:
        return 0.0
    return counters.get(WIRE_BYTES_COUNTER) / raw


# ---------------------------------------------------------------------------
# frame streams (spill files, journals)
# ---------------------------------------------------------------------------


def write_batch(fh: BinaryIO, batch: WireBatch) -> int:
    """Append one frame to a binary stream; returns bytes written."""
    fh.write(batch.frame)
    return len(batch.frame)


def read_frames(
    fh: BinaryIO,
    *,
    make: Callable[[Any, Any], Any] = Record,
) -> Iterator[list[Any]]:
    """Yield record batches from a stream of concatenated frames.

    Stops cleanly at EOF on a frame boundary; raises
    :class:`SerializationError` if the stream ends mid-frame.  The
    stream is read ahead in blocks (frames are decoded in place from one
    buffer), so its position means nothing until the iterator is
    exhausted.
    """
    buffer = bytearray()
    position = 0
    while True:
        if len(buffer) - position < _MAX_HEADER_BYTES:
            del buffer[:position]
            position = 0
            buffer += fh.read(_READ_BYTES)
            if not buffer:
                return
        end = position + frame_size(buffer, position)
        while len(buffer) < end:
            block = fh.read(_READ_BYTES)
            if not block:
                raise SerializationError(
                    "truncated frame: payload or CRC missing"
                )
            buffer += block
        records, position = decode_frame(buffer, position, make=make)
        yield records
