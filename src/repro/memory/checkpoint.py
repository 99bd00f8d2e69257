"""Atomic, CRC-verified checkpoints of a reducer's partial-result store.

The paper's barrier-less reducer owns an incrementally maintained
partial-result store (§3.2); this module turns that store into the
recovery mechanism itself.  A checkpoint is a single file of
:mod:`repro.dfs.wire` frames (varint headers + optional zlib + CRC32
trailer per frame):

- frame 0 holds exactly one meta record — ``(_META_KEY, {"version": ...,
  "meta": <caller dict>})`` — carrying fetch progress (per-mapper next
  sequence number, epoch tag and records folded) alongside the snapshot;
- every following frame holds a batch of store entries in ascending key
  order;
- the final frame is a trailer — ``(_END_KEY, {"frames": n, "records":
  m})`` — whose counts must match what precedes it.  Frames are
  self-delimiting, so without the trailer a file truncated exactly on a
  frame boundary would read back as a valid, shorter snapshot; the
  trailer turns every truncation into a hard error.

Writes go to a temp file in the same directory, are fsynced, then
``os.replace``d over ``checkpoint.wire`` — a crash mid-checkpoint leaves
the previous snapshot intact.  Reads verify every frame's CRC before any
payload is interpreted; *any* defect (missing file, torn tail, flipped
bit, bad meta shape) raises :class:`CheckpointError` so callers fail
closed to a full refold rather than decode garbage.

Store files — checkpoints, spill runs, kvstore log entries — hold typed
frames only, the same frames the shuffle moves.  A value the typed codec
cannot express (a mutable ``set``, an arbitrary object) raises the
codec's :class:`SerializationError` where it is written, and a failed
snapshot leaves neither its temp file nor a changed previous snapshot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice
from typing import Any, BinaryIO, Iterable, Iterator

from repro.core.types import Key, Value
from repro.dfs.serialization import SerializationError
from repro.dfs.wire import (
    WireBatch,
    WireConfig,
    entry_pair,
    read_frames,
    seal_pairs,
    write_batch,
)

#: File name of the current snapshot inside a checkpoint directory.
CHECKPOINT_FILENAME = "checkpoint.wire"

#: On-disk format version; bumped on incompatible layout changes.
CHECKPOINT_VERSION = 1

#: Key of the single record in frame 0.  Store entries start at frame 1,
#: so a store key colliding with this string cannot be misparsed as meta.
_META_KEY = "__repro_checkpoint_meta__"

#: Key of the single record in the trailer frame (see module docstring).
_END_KEY = "__repro_checkpoint_end__"

#: Meta-dict key stamped (``True``) by a preemption-forced snapshot —
#: the final cut of a parked reduce attempt rather than a periodic one.
#: Purely informational on restore: the resume path treats preempt cuts
#: and periodic cuts identically (same progress map, same CRC story).
PREEMPT_META_KEY = "preempted"

#: Default framing for store files (checkpoints, spills, kvstore logs).
STORE_WIRE = WireConfig()


class CheckpointError(RuntimeError):
    """Missing, torn or corrupted checkpoint.

    Raised for *every* defect on the read path so callers can fail
    closed: discard the snapshot and refold from the fetch stream.
    """


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to cut a snapshot: record-count, byte and interval triggers.

    Triggers compose with OR; a trigger left ``None`` never fires.  A
    policy with no triggers set is inert (``enabled`` is False), which
    lets callers thread a policy object around unconditionally.
    """

    every_records: int | None = None
    every_bytes: int | None = None
    interval_s: float | None = None

    def __post_init__(self) -> None:
        if self.every_records is not None and self.every_records <= 0:
            raise ValueError("every_records must be positive")
        if self.every_bytes is not None and self.every_bytes <= 0:
            raise ValueError("every_bytes must be positive")
        if self.interval_s is not None and self.interval_s <= 0:
            raise ValueError("interval_s must be positive")

    @property
    def enabled(self) -> bool:
        """Whether any trigger is configured."""
        return (
            self.every_records is not None
            or self.every_bytes is not None
            or self.interval_s is not None
        )

    def due(
        self, records_since: int, bytes_since: int, elapsed_s: float
    ) -> bool:
        """Whether progress since the last snapshot warrants a new one."""
        if self.every_records is not None and records_since >= self.every_records:
            return True
        if self.every_bytes is not None and bytes_since >= self.every_bytes:
            return True
        if self.interval_s is not None and elapsed_s >= self.interval_s:
            return True
        return False


@dataclass(frozen=True)
class CheckpointStats:
    """Accounting for one snapshot write."""

    path: str
    records: int
    bytes: int
    frames: int


def checkpoint_path(directory: str) -> str:
    """Path of the snapshot file inside a checkpoint directory."""
    return os.path.join(directory, CHECKPOINT_FILENAME)


def checkpoint_exists(directory: str) -> bool:
    """Whether a snapshot file is present (says nothing about validity)."""
    return os.path.exists(checkpoint_path(directory))


def discard_checkpoint(directory: str) -> None:
    """Remove the snapshot file if present (stale-epoch invalidation)."""
    try:
        os.unlink(checkpoint_path(directory))
    except FileNotFoundError:
        pass


def encode_entry_frames(
    entries: Iterable[tuple[Key, Value]], wire: WireConfig | None = None
) -> Iterator[WireBatch]:
    """Frame ``(key, value)`` entries into wire batches of
    ``max_batch_records`` each."""
    wire = wire if wire is not None else STORE_WIRE
    entries = iter(entries)
    while chunk := list(islice(entries, wire.max_batch_records)):
        yield encode_entry_frame(chunk, wire)


def encode_entry_frame(
    entries: list[tuple[Key, Value]], wire: WireConfig | None = None
) -> WireBatch:
    """Frame one batch of entries (columnar when they qualify); raises
    :class:`SerializationError` for a key or value the typed codec
    cannot express."""
    wire = wire if wire is not None else STORE_WIRE
    return seal_pairs(
        [key for key, _ in entries], [value for _, value in entries], wire
    )


def read_entry_frames(fh: BinaryIO) -> Iterator[list[tuple[Key, Value]]]:
    """Read back what :func:`encode_entry_frames` wrote, batch by batch.

    Entries come back as plain ``(key, value)`` tuples with no
    :class:`Record` in between.
    """
    return read_frames(fh, make=entry_pair)


def write_checkpoint(
    directory: str,
    entries: Iterable[tuple[Key, Value]],
    *,
    meta: dict[str, Any] | None = None,
    wire: WireConfig | None = None,
) -> CheckpointStats:
    """Atomically snapshot ``entries`` (plus ``meta``) into ``directory``.

    The snapshot is written to a temp file, flushed and fsynced, then
    renamed over :data:`CHECKPOINT_FILENAME`; a crash at any point leaves
    either the old snapshot or the new one, never a torn file under the
    final name.  A write that fails (a value the codec rejects, a full
    disk) removes its temp file before the error propagates.
    """
    wire = wire if wire is not None else STORE_WIRE
    os.makedirs(directory, exist_ok=True)
    final = checkpoint_path(directory)
    tmp = final + ".tmp"
    payload = {"version": CHECKPOINT_VERSION, "meta": dict(meta or {})}
    records = 0
    frames = 0
    written = 0
    try:
        with open(tmp, "wb") as fh:
            written += write_batch(
                fh, encode_entry_frame([(_META_KEY, payload)], wire)
            )
            frames += 1
            for batch in encode_entry_frames(entries, wire):
                written += write_batch(fh, batch)
                records += batch.count
                frames += 1
            trailer = {"frames": frames, "records": records}
            written += write_batch(
                fh, encode_entry_frame([(_END_KEY, trailer)], wire)
            )
            frames += 1
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return CheckpointStats(
        path=final, records=records, bytes=written, frames=frames
    )


def read_checkpoint(
    directory: str,
) -> tuple[dict[str, Any], list[tuple[Key, Value]]]:
    """Load and fully verify a snapshot; returns ``(meta, entries)``.

    Every frame's CRC is checked (the whole file is read), so a torn
    tail is detected even when the caller only wants the meta record.
    """
    path = checkpoint_path(directory)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"no checkpoint at {path}: {exc}") from exc
    try:
        with fh:
            frames = list(read_entry_frames(fh))
    except SerializationError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not frames:
        raise CheckpointError(f"empty checkpoint {path}")
    head = frames[0]
    if len(head) != 1 or head[0][0] != _META_KEY:
        raise CheckpointError(f"checkpoint {path} missing meta frame")
    payload = head[0][1]
    if (
        not isinstance(payload, dict)
        or payload.get("version") != CHECKPOINT_VERSION
        or not isinstance(payload.get("meta"), dict)
    ):
        raise CheckpointError(f"checkpoint {path} has bad meta payload")
    tail = frames[-1]
    if len(tail) != 1 or tail[0][0] != _END_KEY:
        raise CheckpointError(f"checkpoint {path} missing trailer frame")
    trailer = tail[0][1]
    body = frames[1:-1]
    if (
        not isinstance(trailer, dict)
        or trailer.get("frames") != len(body) + 1
        or trailer.get("records") != sum(len(entries) for entries in body)
    ):
        raise CheckpointError(f"checkpoint {path} trailer count mismatch")
    return payload["meta"], [entry for entries in body for entry in entries]


def peek_checkpoint_meta(directory: str) -> dict[str, Any]:
    """Validate the whole snapshot and return only its meta dict.

    Engines call this before mutating any state: the full-file CRC pass
    guarantees that a later :func:`read_checkpoint` (or a store's
    ``restore``) cannot fail halfway through loading.
    """
    meta, _entries = read_checkpoint(directory)
    return meta
