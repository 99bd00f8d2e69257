"""Closing a listener must not wait out a sleeping ``accept``.

Closing a listening descriptor does not wake a thread blocked in
``accept`` on it, so ``ShuffleServer.close`` — and through every
worker's exit path ``ClusterRuntime.shutdown`` — used to sit out its
whole 2 s join timeout, and ``NetChaosProxy.close`` did the same and
left its threads behind.  ``close_listener`` shuts the socket down first.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.cluster import ChaosPolicy, ClusterRuntime, NetChaosProxy
from repro.cluster.shuffle import ShuffleServer, ShuffleStore


def _settled_server() -> ShuffleServer:
    """A server whose accept thread is provably parked in ``accept``."""
    server = ShuffleServer(ShuffleStore())
    # One throwaway connection: once it is accepted the loop is running
    # and goes straight back into accept().
    socket.create_connection((server.host, server.port), timeout=2.0).close()
    time.sleep(0.05)
    return server


def test_shuffle_server_close_wakes_accept():
    server = _settled_server()
    started = time.perf_counter()
    server.close()
    assert time.perf_counter() - started < 0.2
    assert not server._thread.is_alive()
    # The port is really released, not just the descriptor.
    with socket.socket() as probe:
        probe.settimeout(0.5)
        assert probe.connect_ex((server.host, server.port)) != 0


def test_netchaos_proxy_close_wakes_accept_and_joins_its_threads():
    server = _settled_server()
    before = set(threading.enumerate())
    proxy = NetChaosProxy((server.host, server.port), ChaosPolicy())
    try:
        # One live link, so there are pump threads to join as well.
        client = socket.create_connection(proxy.address, timeout=2.0)
        time.sleep(0.05)
        started = time.perf_counter()
        proxy.close()
        assert time.perf_counter() - started < 0.2
        assert not [
            thread.name for thread in set(threading.enumerate()) - before
            if thread.name.startswith("netchaos-")
        ]
        client.close()
    finally:
        server.close()


def test_cluster_runtime_shutdown_does_not_wait_for_workers_to_time_out():
    runtime = ClusterRuntime(2)
    # Let both workers' shuffle servers park in accept(): four heartbeats.
    time.sleep(0.2)
    started = time.perf_counter()
    runtime.shutdown()
    assert time.perf_counter() - started < 1.0
