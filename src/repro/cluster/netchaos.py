"""Network-chaos TCP proxy: degrade cluster links on purpose.

Process-kill chaos proves the cluster survives dead workers; this
module covers the failure class between "healthy" and "dead" — a
network that delays, throttles, resets, black-holes or corrupts bytes
while both endpoints stay alive.  :class:`NetChaosProxy` is a plain
TCP forwarder interposed on a link (the runtime points workers at
proxy addresses instead of real ones), applying one
:class:`ChaosPolicy` per proxied link class:

- ``latency_s`` — added delay before each forwarded chunk.
- ``bandwidth_bytes_per_s`` — a throughput cap (sleep per chunk).
- ``corrupt_every_bytes`` — flip one bit roughly every N forwarded
  bytes.  Flip positions come from :func:`~repro.engine.faults.
  stable_fraction` over ``(seed, link, chunk)``, so the schedule is
  seeded and varies per connection — a retried fetch on a fresh link
  sees a different schedule and eventually gets through.  Corrupted
  frames must surface as the wire format's CRC errors (RpcError /
  SerializationError → fetch retry), never as silent divergence; that
  oracle is the determinism guarantee chaos runs assert.
- ``reset_after_bytes`` — hard-close the link (SO_LINGER 0, so the
  peer sees ECONNRESET) once a connection has forwarded N bytes.
- ``partition_s`` — black-hole window: for the first N seconds of the
  proxy's life no byte crosses it in either direction; established
  links stall and new links connect but carry nothing, exactly like a
  switch dropping a port.  Clients ride it out on their fetch
  timeout/backoff budget and heal when the window closes.

Every policy effect lands in ``netchaos.*`` counters on the owning
observability bundle, so a chaos run can assert the degradation
actually happened (`netchaos.corrupted_bytes > 0`) alongside the
recovery counters proving it was survived.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass

from repro.engine.faults import stable_fraction
from repro.obs import JobObservability
from repro.cluster.rpc import close_listener

__all__ = ["ChaosPolicy", "NetChaosConfig", "NetChaosProxy"]

_CHUNK_BYTES = 1 << 16
_POLL_S = 0.05


@dataclass(frozen=True)
class ChaosPolicy:
    """Per-link-class degradation knobs; defaults are a clean wire."""

    latency_s: float = 0.0
    bandwidth_bytes_per_s: int | None = None
    corrupt_every_bytes: int | None = None
    reset_after_bytes: int | None = None
    partition_s: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.partition_s < 0:
            raise ValueError("latency_s and partition_s must be >= 0")
        for name in ("bandwidth_bytes_per_s", "corrupt_every_bytes",
                     "reset_after_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")


@dataclass(frozen=True)
class NetChaosConfig:
    """Which links get which policy: shuffle (data) and RPC (control)."""

    shuffle: ChaosPolicy | None = None
    rpc: ChaosPolicy | None = None


class NetChaosProxy:
    """A policy-applying TCP proxy in front of one target address.

    Accepts on an ephemeral port and pumps each accepted connection to
    ``target`` through two relay threads (one per direction), applying
    the policy to every forwarded chunk.  ``close`` tears down the
    listener and every live link and waits for their threads to end.
    """

    def __init__(
        self,
        target: tuple[str, int],
        policy: ChaosPolicy,
        *,
        obs: JobObservability | None = None,
        host: str = "127.0.0.1",
        label: str = "link",
    ) -> None:
        self._target = target
        self._policy = policy
        self._obs = obs if obs is not None else JobObservability()
        self._label = label
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()
        self._started = time.monotonic()
        self._closing = threading.Event()
        self._links: set[socket.socket] = set()
        self._links_lock = threading.Lock()
        self._link_threads: set[threading.Thread] = set()
        self._link_seq = 0
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"netchaos-{label}", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """Where clients should connect instead of the real target."""
        return (self.host, self.port)

    # -- plumbing ----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            self._link_seq += 1
            link = threading.Thread(
                target=self._serve_link, args=(client, self._link_seq),
                name=f"netchaos-{self._label}-{self._link_seq}", daemon=True,
            )
            with self._links_lock:
                self._link_threads.add(link)
            link.start()

    def _serve_link(self, client: socket.socket, link_id: int) -> None:
        try:
            self._relay(client, link_id)
        finally:
            with self._links_lock:
                self._link_threads.discard(threading.current_thread())

    def _relay(self, client: socket.socket, link_id: int) -> None:
        try:
            upstream = socket.create_connection(self._target, timeout=5.0)
        except OSError:
            client.close()
            return
        self._obs.counters.increment("netchaos.links")
        with self._links_lock:
            self._links.update((client, upstream))
        pumps = [
            threading.Thread(
                target=self._pump, args=(src, dst, link_id, tag),
                name=f"netchaos-pump-{link_id}-{tag}", daemon=True,
            )
            for src, dst, tag in (
                (client, upstream, "up"), (upstream, client, "down"),
            )
        ]
        for pump in pumps:
            pump.start()
        for pump in pumps:
            pump.join()
        with self._links_lock:
            self._links.difference_update((client, upstream))
        for sock in (client, upstream):
            try:
                sock.close()
            except OSError:
                pass

    def _partition_remaining(self) -> float:
        return self._policy.partition_s - (time.monotonic() - self._started)

    def _pump(
        self, src: socket.socket, dst: socket.socket, link_id: int, tag: str
    ) -> None:
        policy = self._policy
        forwarded = 0
        chunk_seq = 0
        try:
            src.settimeout(_POLL_S)
        except OSError:
            return  # the opposite pump already reset this link
        while not self._closing.is_set():
            dark = self._partition_remaining()
            if dark > 0:
                # Black hole: leave the bytes in the kernel buffer so the
                # stream resumes intact when the window closes.
                time.sleep(min(dark, _POLL_S))
                continue
            try:
                data = src.recv(_CHUNK_BYTES)
            except socket.timeout:
                continue
            except OSError:
                return
            if not data:
                # Half-close: propagate EOF so the peer unblocks.
                try:
                    dst.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
                return
            if policy.latency_s:
                time.sleep(policy.latency_s)
            if policy.bandwidth_bytes_per_s:
                time.sleep(len(data) / policy.bandwidth_bytes_per_s)
            if policy.corrupt_every_bytes:
                data = self._maybe_corrupt(data, link_id, tag, chunk_seq)
            if (
                policy.reset_after_bytes is not None
                and forwarded + len(data) > policy.reset_after_bytes
            ):
                self._reset(src, dst)
                return
            try:
                dst.sendall(data)
            except OSError:
                return
            forwarded += len(data)
            chunk_seq += 1
            self._obs.counters.increment("netchaos.bytes", len(data))

    def _maybe_corrupt(
        self, data: bytes, link_id: int, tag: str, chunk_seq: int
    ) -> bytes:
        """Flip one bit in ~(len/corrupt_every_bytes) of all chunks.

        Decision and position both derive from the policy seed and the
        link/chunk identity, so reruns with one seed corrupt the same
        schedule while retries on fresh links draw fresh schedules.
        """
        policy = self._policy
        key = (policy.seed, self._label, link_id, tag, chunk_seq)
        probability = min(1.0, len(data) / policy.corrupt_every_bytes)
        if stable_fraction(*key, "hit") >= probability:
            return data
        position = int(stable_fraction(*key, "pos") * len(data))
        bit = 1 << int(stable_fraction(*key, "bit") * 8)
        corrupted = bytearray(data)
        corrupted[position] ^= bit
        self._obs.counters.increment("netchaos.corrupted_bytes")
        self._obs.events.emit(
            "netchaos.corrupt", label=self._label, link=link_id,
            direction=tag, offset=position,
        )
        return bytes(corrupted)

    def _reset(self, *socks: socket.socket) -> None:
        """Hard-close both halves so peers observe ECONNRESET."""
        self._obs.counters.increment("netchaos.resets")
        self._obs.events.emit("netchaos.reset", label=self._label)
        for sock in socks:
            try:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        self._closing.set()
        close_listener(self._listener)  # a bare close() leaves accept asleep
        self._thread.join(timeout=2.0)
        with self._links_lock:
            links = list(self._links)
            threads = list(self._link_threads)
        for sock in links:
            try:
                # Wakes the pump polling this socket at once.
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=2.0)
