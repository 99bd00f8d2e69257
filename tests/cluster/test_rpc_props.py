"""Property-based tests for the cluster RPC codec (repro.cluster.rpc).

The protocol's safety rests on three invariants, fuzzed here: every
message the codec accepts round-trips bit-exactly; every defective blob
— truncated anywhere, any single bit flipped, length prefix lying or
oversized — raises :class:`~repro.cluster.rpc.RpcError` instead of
decoding garbage; and the socket reader can never be hung or ballooned
by a malicious peer, because the length prefix is validated before any
payload is read and every receive runs under a timeout.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.rpc import (
    MAX_MESSAGE_BYTES,
    MESSAGE_KINDS,
    RpcError,
    decode_message,
    encode_message,
    recv_message,
    send_message,
)
from repro.dfs.wire import FLAG_COMPRESSED

# Field values: everything the typed wire codec supports, NaN excluded
# (breaks equality round-trips) and ints inside the 77-bit varint range.
_ints = st.integers(min_value=-(2**77 - 1), max_value=2**77 - 1)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)
_fields = st.dictionaries(st.text(max_size=12), _values, max_size=5)
_kinds = st.sampled_from(MESSAGE_KINDS)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_kinds, _fields)
    def test_every_kind_round_trips(self, kind, fields):
        blob = encode_message(kind, fields)
        assert decode_message(blob) == (kind, fields)

    @settings(max_examples=30, deadline=None)
    @given(_kinds)
    def test_no_fields_decodes_as_empty_dict(self, kind):
        assert decode_message(encode_message(kind)) == (kind, {})

    def test_unknown_kind_rejected_on_encode(self):
        with pytest.raises(RpcError):
            encode_message("not-a-message", {})

    def test_registered_is_no_longer_a_kind(self):
        # The coordinator never sent it: a worker's link counts once its
        # ``register`` is out, with no acknowledgement.
        assert "registered" not in MESSAGE_KINDS
        with pytest.raises(RpcError, match="unknown message kind"):
            encode_message("registered", {"worker": "w0"})


class TestDefectiveBlobs:
    @settings(max_examples=150, deadline=None)
    @given(_kinds, _fields, st.data())
    def test_any_truncation_raises(self, kind, fields, data):
        blob = encode_message(kind, fields)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(RpcError):
            decode_message(blob[:cut])

    @settings(max_examples=150, deadline=None)
    @given(_kinds, _fields, st.data())
    def test_any_bit_flip_raises(self, kind, fields, data):
        blob = bytearray(encode_message(kind, fields))
        position = data.draw(
            st.integers(min_value=0, max_value=len(blob) * 8 - 1)
        )
        blob[position // 8] ^= 1 << (position % 8)
        with pytest.raises(RpcError):
            decode_message(bytes(blob))

    @settings(max_examples=50, deadline=None)
    @given(_kinds, _fields, st.binary(min_size=1, max_size=16))
    def test_trailing_bytes_raise(self, kind, fields, extra):
        with pytest.raises(RpcError):
            decode_message(encode_message(kind, fields) + extra)

    def test_oversized_length_prefix_rejected(self):
        blob = struct.pack(">I", MAX_MESSAGE_BYTES + 1) + b"x"
        with pytest.raises(RpcError):
            decode_message(blob)

    def test_oversized_message_rejected_on_encode(self):
        # Incompressible payload: compressible filler would deflate back
        # under the ceiling and legitimately encode.
        blob = os.urandom(MAX_MESSAGE_BYTES + 1024)
        with pytest.raises(RpcError):
            encode_message("heartbeat", {"blob": blob})


class TestSocketReads:
    """A hostile or dying peer can never hang a socket read."""

    def _pair(self):
        server, client = socket.socketpair()
        server.settimeout(2.0)
        client.settimeout(2.0)
        return server, client

    def test_round_trip_over_socket(self):
        server, client = self._pair()
        try:
            send_message(client, "fetch", {"mapper": 3, "seq": 0})
            assert recv_message(server) == ("fetch", {"mapper": 3, "seq": 0})
        finally:
            server.close()
            client.close()

    def test_peer_death_mid_frame_raises_not_hangs(self):
        server, client = self._pair()
        try:
            blob = encode_message("heartbeat", {"worker": "w0"})
            client.sendall(blob[: len(blob) // 2])
            client.close()
            with pytest.raises(RpcError):
                recv_message(server)
        finally:
            server.close()

    def test_oversized_prefix_raises_before_reading_payload(self):
        server, client = self._pair()
        try:
            # Only the lying prefix is ever sent; if the reader tried to
            # allocate/read the claimed payload it would block and the
            # 2s socket timeout (not RpcError) would fail this test.
            client.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
            with pytest.raises(RpcError):
                recv_message(server)
        finally:
            server.close()
            client.close()

    @pytest.mark.parametrize("bit", range(32))
    def test_any_length_prefix_bit_flip_raises_at_once(self, bit):
        # The prefix is outside the frame's CRC.  A flip that makes it
        # claim more bytes than were sent must fail on the frame header
        # already received, not wait out the 2s socket timeout.
        server, client = self._pair()
        try:
            blob = bytearray(
                encode_message("batch", {"epoch": 1, "frame": b"x" * 40})
            )
            blob[bit // 8] ^= 0x80 >> (bit % 8)
            client.sendall(bytes(blob))
            started = time.monotonic()
            with pytest.raises(RpcError):
                recv_message(server)
            assert time.monotonic() - started < 0.5
        finally:
            server.close()
            client.close()

    def test_silent_peer_times_out(self):
        server, client = self._pair()
        try:
            with pytest.raises(socket.timeout):
                recv_message(server, timeout=0.05)
        finally:
            server.close()
            client.close()

    def test_garbage_payload_raises(self):
        server, client = self._pair()
        try:
            client.sendall(struct.pack(">I", 8) + b"\x00" * 8)
            with pytest.raises(RpcError):
                recv_message(server)
        finally:
            server.close()
            client.close()

    def test_concurrent_writers_never_interleave_frames(self):
        """send_message is atomic per call under a caller-held lock."""
        server, client = self._pair()
        lock = threading.Lock()
        errors: list[BaseException] = []

        def blast(worker: str) -> None:
            try:
                for _ in range(50):
                    with lock:
                        send_message(client, "heartbeat", {"worker": worker})
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=blast, args=(f"w{i}",)) for i in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            seen = 0
            while seen < 200:
                kind, fields = recv_message(server)
                assert kind == "heartbeat"
                assert fields["worker"] in {"w0", "w1", "w2", "w3"}
                seen += 1
            assert not errors
        finally:
            for thread in threads:
                thread.join()
            server.close()
            client.close()


class TestBatchCompression:
    """``batch`` replies carry frames already deflated where that helped,
    so their message frame skips the deflate attempt; other kinds keep
    the usual rule."""

    def test_compressible_batch_stays_raw_and_round_trips(self):
        fields = {
            "epoch": 1, "frames": [b"x" * 400] * 4, "counts": [1] * 4,
            "raws": [400] * 4, "end": True,
        }
        blob = encode_message("batch", fields)
        assert not blob[4] & FLAG_COMPRESSED
        assert decode_message(blob) == ("batch", fields)

    def test_compressible_message_of_another_kind_is_deflated(self):
        blob = encode_message("reduce-done", {"output": b"x" * 1600})
        assert blob[4] & FLAG_COMPRESSED
