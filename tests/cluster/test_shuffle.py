"""Windowed shuffle fetch over loopback: one round trip per window.

A ``fetch`` asks for a window of consecutive batches and one ``batch``
reply carries up to that many.  These tests run one real
:class:`~repro.cluster.shuffle.ShuffleServer` on 127.0.0.1 and count
requests where the server reads its store, so every claim about round
trips is a count, not a timing: frames come back byte for byte, a stream
that fits one window costs one request (its end included), a location
update invalidates a window, a failed attempt shrinks the next request
to one batch and success grows it back, replies respect the byte cap,
and ``on_serve`` sees cumulative batch counts.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import shuffle
from repro.cluster.shuffle import (
    FETCH_WINDOW,
    LocationTable,
    RemoteMapOutputSource,
    ShuffleServer,
    ShuffleStore,
)
from repro.core.types import Record
from repro.dfs.wire import WireConfig, encode_record_batches
from repro.engine.recovery import FetchAttemptError

JOB = "job-1"


class RecordingStore(ShuffleStore):
    """A store that logs every window the server reads from it (and the
    server's ``on_serve`` calls) and can answer the next ones as
    ``gone``."""

    def __init__(self) -> None:
        super().__init__()
        self.requests: list[tuple[int, int, int, int]] = []
        self.replies: list[list] = []
        self.served: list[int] = []
        self.fail_next = 0

    def read_window(self, job_id, mapper, reducer, seq, window):
        self.requests.append((mapper, reducer, seq, window))
        if self.fail_next:
            self.fail_next -= 1
            return None
        held = super().read_window(job_id, mapper, reducer, seq, window)
        if held is not None:
            self.replies.append(held[1])
        return held


@pytest.fixture()
def loopback():
    """``(store, server, locations, source)`` on one loopback server."""
    store = RecordingStore()
    server = ShuffleServer(store, on_serve=store.served.append)
    locations = LocationTable()
    source = RemoteMapOutputSource(JOB, locations, fetch_timeout_s=5.0)
    try:
        yield store, server, locations, source
    finally:
        source.close()
        server.close()


def _batches(count: int, per_batch: int = 1, value: str = "v", tag: str = "k"):
    records = [Record(f"{tag}{i}", f"{value}{i}") for i in range(count)]
    return encode_record_batches(records, WireConfig(max_batch_records=per_batch))


def _publish(store, server, locations, mapper, epoch, streams):
    store.publish(JOB, mapper, epoch, streams)
    locations.update(mapper, server.host, server.port, epoch)


def _drain(source, mapper: int, reducer: int) -> list:
    out = []
    while True:
        _epoch, batch = source.read(mapper, reducer, len(out))
        if batch is None:
            return out
        out.append(batch)


def test_windowed_drain_returns_the_published_frames(loopback):
    store, server, locations, source = loopback
    published = {
        mapper: {
            reducer: _batches(40 + 7 * reducer, 3, tag=f"m{mapper}r{reducer}-")
            for reducer in range(3)
        }
        for mapper in range(2)
    }
    for mapper, streams in published.items():
        _publish(store, server, locations, mapper, 0, streams)
    for mapper, streams in published.items():
        for reducer, batches in streams.items():
            assert _drain(source, mapper, reducer) == batches


def test_one_request_per_stream_that_fits_a_window(loopback):
    store, server, locations, source = loopback
    streams = 0
    for mapper in range(3):
        _publish(store, server, locations, mapper, 0, {
            reducer: _batches(5 * (reducer + 1)) for reducer in range(2)
        })
        streams += 2
    for mapper in range(3):
        for reducer in range(2):
            assert len(_drain(source, mapper, reducer)) == 5 * (reducer + 1)
    assert len(store.requests) == streams
    assert all(window == FETCH_WINDOW for *_at, window in store.requests)


def test_end_is_answered_without_a_request(loopback):
    store, server, locations, source = loopback
    _publish(store, server, locations, 0, 4, {0: _batches(3)})
    for seq in range(3):
        assert source.read(0, 0, seq)[1] is not None
    assert len(store.requests) == 1
    assert source.read(0, 0, 3) == (4, None)
    assert len(store.requests) == 1
    # A stream with no batches at all costs exactly one request too.
    _publish(store, server, locations, 1, 0, {})
    assert source.read(1, 0, 0) == (0, None)
    assert source.read(1, 0, 0) == (0, None)
    assert len(store.requests) == 2


def test_location_update_drops_the_window(loopback):
    store, server, locations, source = loopback
    _publish(store, server, locations, 0, 0, {0: _batches(4)})
    assert source.read(0, 0, 0)[0] == 0
    # Republished under epoch 1, but the reducer has not heard yet: the
    # window it holds still answers, with no round trip.
    store.publish(JOB, 0, 1, {0: _batches(4, value="w")})
    assert source.read(0, 0, 1)[0] == 0
    assert len(store.requests) == 1
    locations.update(0, server.host, server.port, 1)
    epoch, batch = source.read(0, 0, 1)
    assert epoch == 1
    assert batch == _batches(4, value="w")[1]
    assert len(store.requests) == 2


def test_close_drops_every_window(loopback):
    store, server, locations, source = loopback
    _publish(store, server, locations, 0, 0, {0: _batches(4)})
    source.read(0, 0, 0)
    source.close()
    source.read(0, 0, 1)
    assert len(store.requests) == 2


def test_failed_attempt_collapses_the_window_then_doubles_back(loopback):
    store, server, locations, source = loopback
    batches = _batches(200)
    _publish(store, server, locations, 0, 0, {0: batches})
    source.read(0, 0, 0)
    for seq in range(1, FETCH_WINDOW):
        source.read(0, 0, seq)
    store.fail_next = 1
    with pytest.raises(FetchAttemptError):
        source.read(0, 0, FETCH_WINDOW)
    drained = batches[:FETCH_WINDOW]
    while True:
        _epoch, batch = source.read(0, 0, len(drained))
        if batch is None:
            break
        drained.append(batch)
    assert drained == batches
    asks = [window for *_at, window in store.requests]
    assert asks == [64, 64, 1, 2, 4, 8, 16, 32, 64, 64]


def test_reply_stays_under_the_byte_cap_unless_alone(loopback, monkeypatch):
    store, server, locations, source = loopback
    cap = 1000
    monkeypatch.setattr(shuffle, "WINDOW_BYTES", cap)
    wire = WireConfig(max_batch_records=1, compress=False)
    sizes = [50, 300, 700, 120, 3000, 40, 40, 900, 200, 200, 200, 200, 10]
    records = [Record(f"k{i}", "x" * size) for i, size in enumerate(sizes)]
    batches = encode_record_batches(records, wire)
    _publish(store, server, locations, 0, 0, {0: batches})
    assert _drain(source, 0, 0) == batches
    for reply in store.replies:
        assert len(reply) == 1 or sum(len(b.frame) for b in reply) <= cap
    assert any(len(reply) > 1 for reply in store.replies)
    assert [batches[4]] in store.replies  # the 3000-byte frame, alone


def test_on_serve_sees_cumulative_batch_counts(loopback):
    store, server, locations, source = loopback
    _publish(store, server, locations, 0, 0, {0: _batches(3), 1: _batches(5)})
    _drain(source, 0, 0)
    _drain(source, 0, 1)
    deadline = time.monotonic() + 2.0
    while len(store.served) < 2 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert store.served == [3, 8]
