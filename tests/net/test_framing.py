"""Framing and protocol codecs: round trips, limits, corruption."""

import math
import socket
import struct
import threading

import pytest

from repro.net import ProtocolError
from repro.net.framing import (
    MAX_HEADER,
    BufferedFrameSocket,
    FrameReader,
    encode_frame,
    parse_frame,
    recv_frame,
    recv_frame_bytes,
    send_frame,
)
from repro.net.protocol import (
    INGEST,
    OK,
    decode_worker_message,
    encode_worker_message,
    kind_name,
    parse_address,
)


class TestFrameRoundTrip:
    def test_header_and_payload_round_trip(self):
        frame = encode_frame(INGEST, {"source": "rfid", "seq": 7}, b"\x00\x01binary")
        reader = FrameReader()
        reader.feed(frame)
        kind, header, payload = reader.next_frame()
        assert kind == INGEST
        assert header == {"source": "rfid", "seq": 7}
        assert payload == b"\x00\x01binary"
        assert reader.next_frame() is None
        assert reader.buffered == 0

    def test_empty_header_and_payload(self):
        reader = FrameReader()
        reader.feed(encode_frame(OK))
        assert reader.next_frame() == (OK, {}, b"")

    def test_byte_at_a_time_reassembly(self):
        frame = encode_frame(INGEST, {"seq": 1}, b"x" * 100)
        reader = FrameReader()
        for i, byte in enumerate(frame):
            reader.feed(bytes((byte,)))
            result = reader.next_frame()
            if i < len(frame) - 1:
                assert result is None
            else:
                assert result is not None

    def test_back_to_back_frames_split_correctly(self):
        frames = encode_frame(OK, {"n": 1}) + encode_frame(OK, {"n": 2}, b"p")
        reader = FrameReader()
        reader.feed(frames)
        assert reader.next_frame()[1] == {"n": 1}
        kind, header, payload = reader.next_frame()
        assert header == {"n": 2} and payload == b"p"
        assert reader.next_frame() is None

    def test_large_frame_round_trips(self):
        payload = bytes(range(256)) * 1024  # 256 KiB, > the 64 KiB edge
        reader = FrameReader()
        reader.feed(encode_frame(INGEST, {"seq": 1}, payload))
        assert reader.next_frame()[2] == payload


class TestFrameLimits:
    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(OK))
        frame[0:2] = b"XX"
        reader = FrameReader()
        reader.feed(bytes(frame))
        with pytest.raises(ProtocolError, match="magic"):
            reader.next_frame()

    def test_bad_version_rejected(self):
        frame = bytearray(encode_frame(OK))
        frame[2] = 99
        reader = FrameReader()
        reader.feed(bytes(frame))
        with pytest.raises(ProtocolError, match="version"):
            reader.next_frame()

    def test_oversized_payload_rejected_before_allocation(self):
        frame = bytearray(encode_frame(OK, None, b"1234"))
        # Patch the payload length field to a huge value.
        struct.pack_into("<I", frame, 8, 1 << 31)
        reader = FrameReader(max_payload=1024)
        reader.feed(bytes(frame))
        with pytest.raises(ProtocolError, match="payload"):
            reader.next_frame()

    def test_oversized_header_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="header"):
            encode_frame(OK, {"blob": "x" * (MAX_HEADER + 1)})


class TestSocketHelpers:
    def test_send_recv_over_a_real_socket(self):
        server, client = socket.socketpair()
        try:
            thread = threading.Thread(
                target=lambda: send_frame(server, INGEST, {"seq": 3}, b"abc")
            )
            thread.start()
            kind, header, payload = recv_frame(client)
            thread.join()
            assert (kind, header, payload) == (INGEST, {"seq": 3}, b"abc")
        finally:
            server.close()
            client.close()

    def test_whole_frame_read_reassembles_a_trickled_frame(self):
        server, client = socket.socketpair()
        try:
            payload = bytes(range(256)) * 1024  # 256 KiB: many reads
            frame = encode_frame(INGEST, {"seq": 5}, payload)

            def trickle():
                for start in range(0, len(frame), 10_000):
                    server.sendall(frame[start : start + 10_000])

            thread = threading.Thread(target=trickle)
            thread.start()
            whole = recv_frame_bytes(client)
            thread.join()
            assert bytes(whole) == frame
            kind, header, body = parse_frame(whole)
            assert (kind, header, bytes(body)) == (INGEST, {"seq": 5}, payload)
        finally:
            server.close()
            client.close()

    def test_whole_frame_read_rejects_eof_inside_a_frame(self):
        server, client = socket.socketpair()
        try:
            frame = encode_frame(INGEST, {"seq": 5}, b"payload-bytes")
            server.sendall(frame[:-3])
            server.close()
            with pytest.raises(ProtocolError, match="middle of a frame"):
                recv_frame_bytes(client)
        finally:
            client.close()

    def test_buffered_reader_survives_a_mid_frame_timeout(self):
        """A timed-out read must keep its partial frame and resume cleanly."""
        server, client = socket.socketpair()
        try:
            buffered = BufferedFrameSocket(client)
            frame = encode_frame(INGEST, {"seq": 9}, b"payload-bytes")
            server.sendall(frame[:7])  # half a prelude, then stall
            with pytest.raises(TimeoutError):
                buffered.recv_frame(timeout=0.1)
            server.sendall(frame[7:])  # the rest arrives later
            kind, header, payload = buffered.recv_frame(timeout=5.0)
            assert (kind, header, payload) == (INGEST, {"seq": 9}, b"payload-bytes")
            # Back-to-back frames split correctly through the buffer.
            server.sendall(encode_frame(OK, {"n": 1}) + encode_frame(OK, {"n": 2}))
            assert buffered.recv_frame(timeout=5.0)[1] == {"n": 1}
            assert buffered.recv_frame(timeout=5.0)[1] == {"n": 2}
        finally:
            server.close()
            client.close()


class TestWorkerMessageCodec:
    @pytest.mark.parametrize(
        "message",
        [
            ("chunk", "rfid", 42, b"\x01\x02payload"),
            ("flush", 7),
            ("stats",),
            ("stop",),
            ("results", 3, 42, b"results-bytes", 12.5, []),
            ("flushed", 1, 7, b""),
            ("stats", 2, [("box", 1, 2, 3, 0.5)]),
            ("error", 0, "Traceback ..."),
        ],
    )
    def test_round_trip(self, message):
        reader = FrameReader()
        reader.feed(encode_worker_message(message))
        decoded = decode_worker_message(*reader.next_frame())
        assert decoded == message

    def test_results_accepts_legacy_five_tuple(self):
        """A span-less 5-tuple encodes fine and decodes to the 6-tuple shape."""
        reader = FrameReader()
        reader.feed(encode_worker_message(("results", 3, 42, b"results-bytes", 12.5)))
        decoded = decode_worker_message(*reader.next_frame())
        assert decoded == ("results", 3, 42, b"results-bytes", 12.5, [])

    def test_results_carries_spans(self):
        span = {
            "name": "shard.exec",
            "cat": "shard",
            "trace": 128,
            "span": "t80/s3/c42/exec",
            "parent": "t80/s3/c42",
            "pid": 123,
            "t0": 1.0,
            "t1": 2.0,
        }
        reader = FrameReader()
        reader.feed(encode_worker_message(("results", 3, 42, b"", 12.5, [span])))
        decoded = decode_worker_message(*reader.next_frame())
        assert decoded[5] == [span]

    def test_infinite_watermarks_survive_json(self):
        for watermark in (-math.inf, math.inf):
            frame = encode_worker_message(("results", 0, 1, b"", watermark))
            reader = FrameReader()
            reader.feed(frame)
            decoded = decode_worker_message(*reader.next_frame())
            assert decoded[4] == watermark

    def test_unknown_kind_raises(self):
        with pytest.raises(ProtocolError):
            decode_worker_message(0xFF, {}, b"")
        assert "UNKNOWN" in kind_name(0xFF)


class TestParseAddress:
    def test_host_port_string(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_tuple_passthrough(self):
        assert parse_address(("localhost", 1234)) == ("localhost", 1234)

    def test_bracketed_ipv6(self):
        assert parse_address("[::1]:9000") == ("::1", 9000)

    @pytest.mark.parametrize("bad", ["no-port", "host:", "host:abc", 42, ("a",)])
    def test_rejects_unparsable(self, bad):
        with pytest.raises(ProtocolError):
            parse_address(bad)
