"""Framed batch codec: the one format of every intermediate byte.

Hadoop moves intermediate data as length-framed, optionally compressed
record batches (IFile segments on the map side, the shuffle HTTP stream
on the reduce side), not as language-native objects.  This module is the
equivalent substrate for the repro engines: record batches are encoded
with the typed serialization in :mod:`repro.dfs.serialization`, framed
with varint headers, optionally zlib-deflated per batch, and sealed with
a CRC32 trailer so corruption and truncation are detected before any
payload is interpreted.  Shuffled batches, streaming journals, map-side
spill runs, store spill runs, kvstore logs and checkpoints are all these
frames, and nothing else: a value the typed codec cannot express fails
where it is first written, with :class:`SerializationError`.

Frame layout (all integers are LEB128 varints except the fixed trailer)::

    +-------+--------------+---------------+-----------+------------+
    | flags | record_count | payload_bytes |  payload  | CRC32 (4B) |
    +-------+--------------+---------------+-----------+------------+

- ``flags`` — one byte.  Bit 0 (:data:`FLAG_COMPRESSED`): payload is
  zlib-deflated.  All other bits must be zero; a frame with any of them
  set is rejected.
- ``payload`` — the concatenation of ``serialization.encode((key,
  value))`` for each record.
- ``CRC32`` — big-endian ``zlib.crc32`` over everything before it
  (header *and* payload), so a flipped bit anywhere in the frame fails
  before decoding starts.

Compression is applied per batch and only kept when it actually shrinks
the payload, so ``shuffle.bytes.raw >= shuffle.bytes.wire`` always holds.
"""

from __future__ import annotations

import struct
import zlib
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

_KNOWN_FLAGS = FLAG_COMPRESSED
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
    return seal_encoded(
        [encode_pair(record.key, record.value) for record in records], config
    )


def seal_encoded(encoded: list[bytes], config: WireConfig) -> WireBatch:
    """Join already-encoded records, deflate if that helps, and seal."""
    flags = 0
    payload = b"".join(encoded)
    raw_bytes = len(payload)
    if config.compress and raw_bytes >= config.compress_min_bytes:
        deflated = zlib.compress(payload)
        if len(deflated) < raw_bytes:
            payload = deflated
            flags |= FLAG_COMPRESSED
    return seal_frame(flags, len(encoded), payload, raw_bytes)


def seal_frame(
    flags: int, count: int, payload: bytes, raw_bytes: int
) -> WireBatch:
    """Put header and CRC trailer around an already-encoded payload."""
    header = bytes((flags,)) + encode_varint(count) + encode_varint(len(payload))
    crc = zlib.crc32(payload, zlib.crc32(header))
    frame = b"".join((header, payload, _CRC.pack(crc)))
    return WireBatch(frame=frame, count=count, raw_bytes=raw_bytes)


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
    that does not decode to exactly ``record_count`` key/value tuples —
    raises :class:`SerializationError`.  Each entry is built by
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
    records: Sequence[Record], config: WireConfig
) -> list[WireBatch]:
    """Split ``records`` into framed batches under the config's limits.

    Batches are cut at ``max_batch_records`` records or when the *raw*
    (pre-compression) typed encoding of a batch would exceed
    ``max_batch_bytes`` — raw size keeps the split deterministic
    whether or not compression shrinks a batch.
    """
    max_records = config.max_batch_records
    max_bytes = config.max_batch_bytes
    batches: list[WireBatch] = []
    chunk: list[bytes] = []
    chunk_bytes = 0
    for record in records:
        encoded = encode_pair(record.key, record.value)
        size = len(encoded)
        if chunk and (
            len(chunk) >= max_records or chunk_bytes + size > max_bytes
        ):
            batches.append(seal_encoded(chunk, config))
            chunk = []
            chunk_bytes = 0
        chunk.append(encoded)
        chunk_bytes += size
    if chunk:
        batches.append(seal_encoded(chunk, config))
    return batches


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
