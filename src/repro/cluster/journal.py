"""Coordinator write-ahead journal: crash-durable cluster job state.

The coordinator keeps all scheduling state in memory; without a journal
a coordinator crash loses every in-flight job even though workers, map
outputs and reducer checkpoints all survive.  This module makes the
control-plane state durable the same way the data plane already is —
as CRC-framed wire records — so a restarted coordinator replays the
journal and resumes jobs instead of restarting them from zero.

Each record is one :func:`repro.dfs.wire.encode_frame` frame holding a
single ``(kind, fields)`` record in the typed serialization — exactly
the framing the RPC codec uses, so a journal inherits the shuffle
wire's integrity properties: CRC32 over header and payload, optional
per-record deflate, and no pickle at the framing layer (structured
blobs such as job specs are pickled explicitly by the coordinator into
``bytes`` fields, like any RPC message).

Appends are atomic-enough for SIGKILL: one ``write`` of a complete
frame, flushed and fsynced before :meth:`Journal.append` returns, so a
record is either fully on disk or is a torn tail.  Replay is
torn-tail-tolerant by construction: :func:`replay_journal` decodes
frames front to back and stops at the first byte that does not decode
as a valid record — a truncated tail, a flipped bit, trailing garbage —
returning the longest valid prefix and never fabricating state.  A
record that journals an action is always written *before* the action's
effects become visible to workers (write-ahead), so the valid prefix is
always a consistent, possibly slightly stale, view of the job.

Record kinds (fields documented in docs/cluster.md):

- ``job-submit`` — job spec, input splits and configs, pickled.
- ``map-grant`` / ``reduce-grant`` — a task assignment to a worker.
- ``epoch-bump`` — a map task's outputs were invalidated.
- ``map-location`` — a completed map's output location broadcast
  (first completion carries the task counters).
- ``reduce-commit`` — a reducer's first-wins committed output.
- ``job-preempt`` — the job was asked to checkpoint-park (write-ahead:
  logged before any ``preempt-reduce`` request reaches a worker, so a
  coordinator killed mid-preemption resumes the job on restart).
- ``job-resume`` — a parked job was re-activated and re-granted.
- ``job-done`` — the job finished; replay skips it entirely.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any

from repro.core.types import Record
from repro.dfs.serialization import SerializationError
from repro.dfs.wire import WireConfig, decode_frame, encode_frame

__all__ = [
    "Journal",
    "JournalError",
    "RECORD_KINDS",
    "ReplayStats",
    "replay_journal",
]

#: The journal vocabulary.  Only state-bearing transitions are logged;
#: liveness (worker death, lease expiry) is re-derived at resume time
#: from live registrations, never replayed from history.
RECORD_KINDS = (
    "job-submit",     # job_id, job, splits, wire, recovery, checkpoint_root,
                      # placement, deadline_s  (object fields pickled bytes)
    "map-grant",      # job_id, mapper, epoch, worker
    "epoch-bump",     # job_id, mapper, epoch
    "reduce-grant",   # job_id, reducer, attempt, worker
    "map-location",   # job_id, mapper, epoch, worker, counters, first
    "reduce-commit",  # job_id, reducer, attempt, output(bytes), counters
    "job-preempt",    # job_id  (checkpoint-park requested)
    "job-resume",     # job_id  (parked job re-activated)
    "job-done",       # job_id
)

#: Journal framing is fixed, like RPC framing: both ends of a crash
#: (writer and replayer) must agree, so it is not configurable.
_FRAME_WIRE = WireConfig()


class JournalError(RuntimeError):
    """An unjournalable record (unknown kind or unencodable fields)."""


@dataclass(frozen=True)
class ReplayStats:
    """What :func:`replay_journal` recovered and what it discarded."""

    records: int
    bytes_replayed: int
    torn_bytes: int


class Journal:
    """Append-only, fsynced record log for one coordinator.

    ``append`` is thread-safe, though the coordinator only journals from
    its dispatch loop (the dispatcher's ``log``).  ``fsync=False`` drops
    durability-per-record for tests that only exercise replay logic.
    """

    def __init__(self, path: str, *, fsync: bool = True) -> None:
        self.path = path
        self._fsync = fsync
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "ab")
        self._lock = threading.Lock()

    def append(self, kind: str, fields: dict[str, Any]) -> int:
        """Durably append one record; returns bytes written."""
        if kind not in RECORD_KINDS:
            raise JournalError(f"unknown journal record kind {kind!r}")
        try:
            batch = encode_frame([Record(kind, dict(fields))], _FRAME_WIRE)
        except SerializationError as exc:
            raise JournalError(f"unencodable {kind} record: {exc}") from exc
        with self._lock:
            self._fh.write(batch.frame)
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())
        return len(batch.frame)

    def close(self) -> None:
        with self._lock:
            try:
                self._fh.close()
            except OSError:
                pass

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay_journal(path: str) -> tuple[list[tuple[str, dict]], ReplayStats]:
    """Recover the longest valid record prefix of a journal file.

    Decodes concatenated frames front to back; the first offset that
    fails to decode as exactly one known ``(kind, dict)`` record ends
    the replay — everything from there on counts as ``torn_bytes``.  A
    missing file replays to nothing.  This never raises on corrupt
    content and never yields a record that did not pass its CRC, so a
    replayer can trust every record it receives.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return [], ReplayStats(records=0, bytes_replayed=0, torn_bytes=0)
    records: list[tuple[str, dict]] = []
    offset = 0
    while offset < len(data):
        try:
            decoded, end = decode_frame(data, offset)
        except SerializationError:
            break
        if len(decoded) != 1:
            break
        kind, fields = decoded[0].key, decoded[0].value
        if kind not in RECORD_KINDS or not isinstance(fields, dict):
            break
        records.append((kind, fields))
        offset = end
    return records, ReplayStats(
        records=len(records),
        bytes_replayed=offset,
        torn_bytes=len(data) - offset,
    )
