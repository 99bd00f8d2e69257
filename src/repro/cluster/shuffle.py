"""TCP shuffle service: serving and fetching map output over sockets.

The worker-local half of the cluster data plane:

- :class:`ShuffleStore` holds the map outputs this worker produced, as
  epoch-tagged per-reducer lists of encoded
  :class:`~repro.dfs.wire.WireBatch` frames — the socket-served analogue
  of Hadoop's mapper-local output files (and of the in-process
  :class:`~repro.engine.recovery.MapOutputService`'s batch streams).
- :class:`ShuffleServer` serves those frames over TCP as length-prefixed
  RPC messages (``fetch`` → ``batch``/``end``/``gone``), one thread per
  connection, sequenced exactly like the in-memory service so the
  reducer-side :class:`~repro.engine.recovery.FetchLedger` semantics
  carry over unchanged.
- :class:`RemoteMapOutputSource` is the reducer-side client: it
  implements the ``wait_available`` / ``read`` / ``epoch_of`` protocol
  that :func:`~repro.engine.recovery.run_fetch_stream` drives, backed by
  a :class:`LocationTable` of where each mapper's output currently
  lives.  Socket failures surface as the retryable
  :class:`~repro.engine.recovery.FetchAttemptError` /
  :class:`~repro.engine.recovery.FetchTimeoutError`, so the existing
  backoff/timeout/dedup policies apply verbatim to real network faults.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable

from repro.dfs.wire import WireBatch
from repro.engine.recovery import (
    BackoffPolicy,
    FetchAttemptError,
    FetchTimeoutError,
)
from repro.cluster.rpc import (
    RpcError,
    close_listener,
    recv_message,
    send_message,
)

__all__ = [
    "LocationTable",
    "RemoteMapOutputSource",
    "ShuffleServer",
    "ShuffleStore",
]


class ShuffleStore:
    """Map outputs held by one worker: (job, mapper) -> epoch + frames."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (job_id, mapper) -> (epoch, {reducer: [WireBatch, ...]}, frame bytes)
        self._outputs: dict[tuple[str, int], tuple[int, dict, int]] = {}
        self._bytes = 0

    def publish(
        self,
        job_id: str,
        mapper: int,
        epoch: int,
        batches: dict[int, list[WireBatch]],
    ) -> None:
        # Sized once, outside the lock fetches are served under; the
        # running total then moves by differences only.
        size = sum(len(b.frame) for stream in batches.values() for b in stream)
        key = (job_id, mapper)
        with self._lock:
            # A republished output replaces, not joins, the older epoch.
            replaced = self._outputs.get(key)
            self._outputs[key] = (epoch, batches, size)
            self._bytes += size - (replaced[2] if replaced is not None else 0)

    def read(
        self, job_id: str, mapper: int, reducer: int, seq: int
    ) -> tuple[int, WireBatch | None] | None:
        """Serve one batch; ``(epoch, None)`` = stream end; ``None`` = gone."""
        with self._lock:
            held = self._outputs.get((job_id, mapper))
            if held is None:
                return None
            epoch, batches, _size = held
            stream = batches.get(reducer, [])
            return epoch, (stream[seq] if seq < len(stream) else None)

    def held(self) -> list[tuple[str, int, int]]:
        """Every output held, as sorted ``(job_id, mapper, epoch)``.

        Re-advertised in the worker's register message so a restarted
        coordinator can reuse surviving map outputs instead of
        re-executing their tasks.
        """
        with self._lock:
            return sorted(
                (job_id, mapper, epoch)
                for (job_id, mapper), (epoch, *_rest) in self._outputs.items()
            )

    def bytes_held(self) -> int:
        """Total encoded frame bytes currently held across all outputs.

        Sampled by the worker's ``worker.store.bytes`` telemetry gauge —
        the per-link "bytes parked here" view the status plane renders.
        """
        with self._lock:
            return self._bytes

    def drop_job(self, job_id: str) -> None:
        """Release every output of a finished job (FD/memory hygiene)."""
        with self._lock:
            for key in [k for k in self._outputs if k[0] == job_id]:
                self._bytes -= self._outputs.pop(key)[2]


class ShuffleServer:
    """Thread-per-connection TCP server over a :class:`ShuffleStore`.

    Speaks the data-plane subset of the RPC protocol: a reducer sends
    ``fetch {job_id, mapper, reducer, seq}`` and receives ``batch``
    (one encoded frame + its epoch), ``end`` (stream exhausted at that
    epoch) or ``gone`` (this worker does not hold that output — the
    client treats it as a transient fault and retries, by which time the
    coordinator has usually republished the location elsewhere).

    ``on_serve`` fires after every successfully written ``batch`` reply,
    on the serving thread; the worker's ``serves`` kill spec hangs off it
    — a worker dying mid-shuffle with its sockets mid-stream.
    """

    def __init__(
        self,
        store: ShuffleStore,
        host: str = "127.0.0.1",
        on_serve: Callable[[int], None] | None = None,
    ) -> None:
        self._store = store
        self._on_serve = on_serve
        self._serves = 0
        self._serves_lock = threading.Lock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()
        self._closing = threading.Event()
        self._thread = threading.Thread(
            target=self._accept_loop, name="shuffle-server", daemon=True
        )
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="shuffle-conn", daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    kind, fields = recv_message(conn)
                except (RpcError, OSError):
                    return  # client went away / garbage: drop the link
                if kind != "fetch":
                    return  # protocol violation: hang up
                try:
                    self._answer_fetch(conn, fields)
                except OSError:
                    return

    def _answer_fetch(self, conn: socket.socket, fields: dict) -> None:
        held = self._store.read(
            str(fields["job_id"]), int(fields["mapper"]),
            int(fields["reducer"]), int(fields["seq"]),
        )
        if held is None:
            send_message(conn, "gone", {})
            return
        epoch, batch = held
        if batch is None:
            send_message(conn, "end", {"epoch": epoch})
            return
        send_message(
            conn,
            "batch",
            {
                "epoch": epoch,
                "frame": batch.frame,
                "count": batch.count,
                "raw": batch.raw_bytes,
            },
        )
        with self._serves_lock:
            self._serves += 1
            serves = self._serves
        if self._on_serve is not None:
            self._on_serve(serves)

    def close(self) -> None:
        self._closing.set()
        close_listener(self._listener)
        self._thread.join(timeout=2.0)


class LocationTable:
    """Where each mapper's output currently lives: mapper -> host, port, epoch.

    Updated by ``location`` broadcasts from the coordinator (initial
    publication and every re-execution after a worker death); readers
    block in :meth:`wait_for` until a mapper is published.  One table per
    (worker, job), shared by all reduce tasks on that worker.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._locations: dict[int, tuple[str, int, int]] = {}

    def update(self, mapper: int, host: str, port: int, epoch: int) -> None:
        with self._cond:
            current = self._locations.get(mapper)
            if current is not None and current[2] > epoch:
                return  # stale broadcast arriving out of order
            self._locations[mapper] = (host, port, epoch)
            self._cond.notify_all()

    def get(self, mapper: int) -> tuple[str, int, int] | None:
        with self._cond:
            return self._locations.get(mapper)

    def epoch_of(self, mapper: int) -> int:
        with self._cond:
            held = self._locations.get(mapper)
            return held[2] if held is not None else -1

    def wait_for(
        self,
        mapper: int,
        timeout: float,
        cancelled: threading.Event | None = None,
    ) -> None:
        deadline = time.monotonic() + timeout
        with self._cond:
            while mapper not in self._locations:
                if cancelled is not None and cancelled.is_set():
                    return
                if time.monotonic() >= deadline:
                    raise FetchTimeoutError(
                        f"map-{mapper} location not published "
                        f"within {timeout}s"
                    )
                self._cond.wait(timeout=0.01)


class RemoteMapOutputSource:
    """Socket-backed map-output source for one reduce attempt.

    Implements the read protocol :func:`~repro.engine.recovery.
    run_fetch_stream` drives against :class:`~repro.engine.recovery.
    MapOutputService` — ``wait_available`` / ``read`` / ``epoch_of`` —
    over TCP connections to peer shuffle servers.  One cached connection
    per peer address; any socket-level failure closes the cached link
    and **evicts it from the cache**, so the next fetch dials a fresh
    connection instead of reusing a poisoned socket (a link reset by
    network chaos would otherwise fail every retry).  Dialing itself
    retries under a :class:`~repro.engine.recovery.BackoffPolicy` —
    outside the cache lock, so one peer riding out a reset never stalls
    fetch streams bound for healthy peers — and failures surface as the
    retryable fetch errors, letting the caller's fetch-level backoff
    pace the attempt (by which time a dead peer's outputs have usually
    moved, via a ``location`` update).
    """

    #: Dial retries per fetch attempt: brief, because the fetch-level
    #: retry/backoff loop above this already paces long outages; this
    #: only absorbs transient refusals (listener backlog, chaos reset).
    _DIAL_BACKOFF = BackoffPolicy(base_s=0.01, cap_s=0.1)
    _DIAL_ATTEMPTS = 3

    def __init__(
        self, job_id: str, locations: LocationTable, fetch_timeout_s: float
    ) -> None:
        self._job_id = job_id
        self._locations = locations
        self._timeout = fetch_timeout_s
        # address -> (socket, request lock).  Several fetch streams (one
        # per mapper) may target the same peer; the per-connection lock
        # keeps each request/response pair atomic on the shared socket.
        self._conns: dict[
            tuple[str, int], tuple[socket.socket, threading.Lock]
        ] = {}
        self._lock = threading.Lock()

    # -- MapOutputService read protocol -----------------------------------

    def wait_available(
        self,
        mapper: int,
        timeout: float,
        cancelled: threading.Event | None = None,
    ) -> None:
        self._locations.wait_for(mapper, timeout, cancelled)

    def epoch_of(self, mapper: int) -> int:
        return self._locations.epoch_of(mapper)

    def read(
        self, mapper: int, reducer: int, seq: int
    ) -> tuple[int, WireBatch | None]:
        held = self._locations.get(mapper)
        if held is None:
            raise FetchAttemptError(f"map-{mapper} has no known location")
        host, port, _epoch = held
        address = (host, port)
        try:
            conn, request_lock = self._connection(address)
            with request_lock:
                send_message(
                    conn,
                    "fetch",
                    {
                        "job_id": self._job_id,
                        "mapper": mapper,
                        "reducer": reducer,
                        "seq": seq,
                    },
                )
                kind, fields = recv_message(conn, timeout=self._timeout)
        except socket.timeout as exc:
            self._drop(address)
            raise FetchTimeoutError(
                f"fetch map-{mapper} seq {seq} from {host}:{port} "
                f"stalled past {self._timeout}s"
            ) from exc
        except (RpcError, OSError) as exc:
            self._drop(address)
            raise FetchAttemptError(
                f"fetch map-{mapper} seq {seq} from {host}:{port}: {exc}"
            ) from exc
        if kind == "gone":
            # The peer is alive but no longer holds this output (e.g. a
            # job raced its cleanup).  Retryable: the location table will
            # be updated when the output is republished.
            raise FetchAttemptError(
                f"map-{mapper} output gone from {host}:{port}"
            )
        if kind == "end":
            return int(fields["epoch"]), None
        if kind != "batch":
            self._drop(address)
            raise FetchAttemptError(f"unexpected {kind} reply to fetch")
        return int(fields["epoch"]), WireBatch(
            frame=bytes(fields["frame"]),
            count=int(fields["count"]),
            raw_bytes=int(fields["raw"]),
        )

    # -- connection cache --------------------------------------------------

    def _connection(
        self, address: tuple[str, int]
    ) -> tuple[socket.socket, threading.Lock]:
        with self._lock:
            held = self._conns.get(address)
        if held is not None:
            return held
        # Dial outside the cache lock: a slow or chaos-degraded peer
        # must not serialize fetches bound for every other peer.
        conn = self._dial(address)
        with self._lock:
            held = self._conns.get(address)
            if held is None:
                held = (conn, threading.Lock())
                self._conns[address] = held
                conn = None
        if conn is not None:
            # Lost the insert race to a concurrent stream: keep the
            # winner's socket, close the spare.
            try:
                conn.close()
            except OSError:
                pass
        return held

    def _dial(self, address: tuple[str, int]) -> socket.socket:
        last_error: OSError | None = None
        for attempt in range(self._DIAL_ATTEMPTS):
            try:
                conn = socket.create_connection(address, timeout=self._timeout)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return conn
            except OSError as exc:
                last_error = exc
                if attempt + 1 < self._DIAL_ATTEMPTS:
                    time.sleep(
                        self._DIAL_BACKOFF.delay(
                            (self._job_id, address), attempt
                        )
                    )
        assert last_error is not None
        raise last_error

    def _drop(self, address: tuple[str, int]) -> None:
        with self._lock:
            held = self._conns.pop(address, None)
        if held is not None:
            try:
                held[0].close()
            except OSError:
                pass

    def close(self) -> None:
        """Close every cached connection (end of the reduce attempt)."""
        with self._lock:
            held = list(self._conns.values())
            self._conns.clear()
        for conn, _lock in held:
            try:
                conn.close()
            except OSError:
                pass
