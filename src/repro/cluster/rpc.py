"""Framed RPC message codec for the cluster control and data planes.

Every message between coordinator and workers — and every data-plane
shuffle fetch — is one length-prefixed wire frame::

    +-----------------+--------------------------------------+
    | length (4B, BE) | wire frame (flags|count|len|payload|CRC) |
    +-----------------+--------------------------------------+

The frame body reuses :func:`repro.dfs.wire.encode_frame` verbatim: the
payload is a single record ``(kind, fields)`` in the typed serialization
of :mod:`repro.dfs.serialization`, so a message inherits the shuffle
wire's integrity properties — CRC32 over header and payload, optional
zlib deflate, and decode-safety on untrusted bytes (no pickle on the
frame itself).  Structured Python objects that the typed codec cannot
express (job specs, record lists) are pickled *explicitly by the caller*
into ``bytes`` fields, keeping the framing layer pickle-free.

Socket reads are hang-proof by construction: the 4-byte length prefix is
read first and validated against :data:`MAX_MESSAGE_BYTES` before any
allocation, so an oversized or garbage prefix raises immediately; a
connection that dies mid-frame raises :class:`RpcError` (EOF) or
``socket.timeout`` rather than blocking forever, because every receive
runs under the socket's configured timeout.
"""

from __future__ import annotations

import socket
import struct
from typing import Any

from repro.core.types import Record
from repro.dfs.serialization import SerializationError
from repro.dfs.wire import WireConfig, decode_frame, encode_frame

__all__ = [
    "MAX_MESSAGE_BYTES",
    "MESSAGE_KINDS",
    "RpcError",
    "close_listener",
    "decode_message",
    "encode_message",
    "recv_message",
    "send_message",
]

#: Hard ceiling on one RPC message (length prefix validated before any
#: payload read).  Generous enough for a pickled job spec or a reduce
#: partition's output; far below anything that could exhaust memory.
MAX_MESSAGE_BYTES = 32 * 1024 * 1024

_LENGTH_BYTES = 4

#: The protocol vocabulary.  Control plane: worker lifecycle and task
#: assignment.  Data plane: the shuffle fetch stream.  Documented per
#: message in docs/cluster.md.
MESSAGE_KINDS = (
    # worker -> coordinator
    "register",      # worker, pid, shuffle_host, shuffle_port,
                     # held [(job_id, mapper, epoch)], active [(job_id,
                     # reducer, attempt)] — surviving state re-advertised
                     # on every (re)connection
    "map-done",      # job_id, mapper, epoch, worker, counters
                     # [, telemetry(bytes)]
    "reduce-done",   # job_id, reducer, attempt, worker, output(bytes),
                     # counters [, telemetry(bytes)]
    "task-failed",   # job_id, kind, index, attempt, worker, error
    "reduce-preempted",  # job_id, reducer, attempt, worker, records
                     # [, telemetry(bytes)] — attempt stopped at a batch
                     # boundary (checkpoint cut when enabled)
    "heartbeat",     # worker, job_id, progress [, telemetry(bytes) — one
                     # repro.cluster.telemetry delta frame]
    # status client -> coordinator (first and only message on a fresh
    # connection; any client, not just workers — see `repro top`)
    "status",        # (no fields)
    # coordinator -> status client
    "status-reply",  # status (nested snapshot dict)
    # coordinator -> worker
    "registered",    # worker
    "job",           # job_id, job(bytes), wire(bytes), recovery(bytes), ...
    "assign-map",    # job_id, mapper, epoch, split(bytes), ctx
    "assign-reduce", # job_id, reducer, attempt, num_maps, prior, ctx
    "location",      # job_id, mapper, epoch, host, port  (broadcast)
    "preempt-reduce",  # job_id, reducer, attempt — stop at the next
                     # wire-batch boundary and ack with reduce-preempted
    "job-done",      # job_id
    "shutdown",      # (no fields)
    # data plane (reducer <-> shuffle server)
    "fetch",         # job_id, mapper, reducer, seq
    "batch",         # epoch, frame(bytes), count, raw
    "end",           # epoch
    "gone",          # (mapper output not held here)
    # submission plane (client <-> job server — see repro.server)
    "submit",        # tenant, app, mode, records, num_maps, num_reducers,
                     # seed [, weight, deadline_s]
    "submit-reply",  # ok, job_id | error, retry_after_s
    "job-status",    # job_id
    "job-status-reply",  # ok, job (nested dict) | error
    "cancel",        # job_id
    "cancel-reply",  # ok, state
    "list-jobs",     # [tenant]
    "list-jobs-reply",   # jobs (list of nested dicts)
)

#: Message framing always uses the typed wire codec, uncompressed-when-
#: small like any shuffle frame; the codec choice is part of the protocol
#: (workers and coordinator must agree), so it is fixed, not configured.
_FRAME_WIRE = WireConfig()


class RpcError(RuntimeError):
    """A malformed, oversized or truncated RPC message."""


def encode_message(kind: str, fields: dict[str, Any] | None = None) -> bytes:
    """Encode one message into a length-prefixed frame blob."""
    if kind not in MESSAGE_KINDS:
        raise RpcError(f"unknown message kind {kind!r}")
    try:
        batch = encode_frame([Record(kind, fields or {})], _FRAME_WIRE)
    except SerializationError as exc:
        raise RpcError(f"unencodable {kind} message: {exc}") from exc
    frame = batch.frame
    if len(frame) > MAX_MESSAGE_BYTES:
        raise RpcError(
            f"{kind} message is {len(frame)} bytes "
            f"(limit {MAX_MESSAGE_BYTES})"
        )
    return struct.pack(">I", len(frame)) + frame


def decode_message(data: bytes) -> tuple[str, dict[str, Any]]:
    """Decode one length-prefixed message blob; inverse of encode.

    Raises :class:`RpcError` on any defect: short prefix, length
    over the ceiling or disagreeing with the actual blob, CRC or codec
    failures inside the frame, unknown kind, or a payload that is not
    the single ``(kind, fields)`` record the protocol requires.
    """
    if len(data) < _LENGTH_BYTES:
        raise RpcError("truncated message: missing length prefix")
    (length,) = struct.unpack(">I", data[:_LENGTH_BYTES])
    if length > MAX_MESSAGE_BYTES:
        raise RpcError(f"message length {length} exceeds limit")
    if len(data) != _LENGTH_BYTES + length:
        raise RpcError(
            f"message length mismatch: prefix says {length}, "
            f"blob holds {len(data) - _LENGTH_BYTES}"
        )
    return _decode_frame_body(data[_LENGTH_BYTES:])


def _decode_frame_body(frame: bytes) -> tuple[str, dict[str, Any]]:
    try:
        records, end = decode_frame(frame)
    except SerializationError as exc:
        raise RpcError(f"bad message frame: {exc}") from exc
    if end != len(frame):
        raise RpcError(f"{len(frame) - end} trailing bytes after frame")
    if len(records) != 1:
        raise RpcError(f"message frame holds {len(records)} records, want 1")
    kind, fields = records[0].key, records[0].value
    if kind not in MESSAGE_KINDS:
        raise RpcError(f"unknown message kind {kind!r}")
    if not isinstance(fields, dict):
        raise RpcError(f"{kind} fields are {type(fields).__name__}, want dict")
    return kind, fields


def send_message(
    sock: socket.socket, kind: str, fields: dict[str, Any] | None = None
) -> None:
    """Write one message to a connected socket (atomic via sendall)."""
    sock.sendall(encode_message(kind, fields))


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    """Read exactly ``nbytes`` or raise :class:`RpcError` on EOF.

    A peer that dies mid-frame closes the connection; ``recv`` then
    returns ``b""`` and this raises instead of spinning.  Stalls are
    bounded by the socket's timeout (``socket.timeout`` propagates).
    """
    chunks: list[bytes] = []
    remaining = nbytes
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            raise RpcError(
                f"connection closed mid-message ({nbytes - remaining}"
                f"/{nbytes} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(
    sock: socket.socket, timeout: float | None = None
) -> tuple[str, dict[str, Any]]:
    """Read one message from a connected socket.

    ``timeout`` (seconds) bounds the whole read; ``None`` keeps the
    socket's current timeout.  Raises :class:`RpcError` on EOF or a
    malformed frame, ``socket.timeout`` on a stall — never hangs past
    the configured timeout, and never reads a byte of payload before
    the length prefix has been validated.
    """
    if timeout is not None:
        sock.settimeout(timeout)
    prefix = _recv_exact(sock, _LENGTH_BYTES)
    (length,) = struct.unpack(">I", prefix)
    if length > MAX_MESSAGE_BYTES:
        raise RpcError(f"message length {length} exceeds limit")
    return _decode_frame_body(_recv_exact(sock, length))


def close_listener(listener: socket.socket) -> None:
    """Close a listening socket *and* wake a thread blocked in ``accept``.

    Closing the descriptor alone leaves the accept call (and with it the
    kernel socket) alive until a connection happens to arrive; shutting
    the socket down first makes ``accept`` fail at once.
    """
    try:
        listener.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already closed, or never listening
    try:
        listener.close()
    except OSError:
        pass
