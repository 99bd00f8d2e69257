"""Closing a listener must not wait out a sleeping ``accept``.

Closing a listening descriptor does not wake a thread blocked in
``accept`` on it, so ``ShuffleServer.close`` — and through every
worker's exit path ``ClusterRuntime.shutdown`` — used to sit out its
whole 2 s join timeout.  ``close_listener`` shuts the socket down first.
"""

from __future__ import annotations

import socket
import time

from repro.cluster import ClusterRuntime
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


def test_cluster_runtime_shutdown_does_not_wait_for_workers_to_time_out():
    runtime = ClusterRuntime(2)
    # Let both workers' shuffle servers park in accept().  Not a multiple
    # of the workers' 50 ms heartbeat: a beat that reaches the coordinator
    # just after it closed the link is answered with a reset, which can
    # overtake the unread "shutdown" and send the worker into its
    # reconnect loop — a different wait from the one this test is about.
    time.sleep(0.225)
    started = time.perf_counter()
    runtime.shutdown()
    assert time.perf_counter() - started < 1.0
