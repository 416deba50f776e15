"""Forked shards on socketpairs: wire fidelity, liveness, process hygiene.

Every out-of-process shard is a ``SocketShardChannel``; a forked worker
holds one end of a socketpair and its coordinator the other.  These
tests pin what that buys: wire-format edge cases survive the round
trip through a forked worker, either side dying is EOF to the other
(no worker outlives a SIGKILLed coordinator, and a killed worker
surfaces as a ``ShardError`` naming its shard), and no worker holds a
socket that is not its own.
"""

import math
import os
import pathlib
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.distributions import Gaussian
from repro.net.errors import ConnectionClosed
from repro.net.framing import parse_frame, recv_frame_bytes
from repro.net.protocol import decode_worker_message, encode_worker_message
from repro.plan import Stream
from repro.runtime import ShardedEngine, ShardError, ShardRunner, SocketShardChannel
from repro.runtime.transport import fork_shards
from repro.runtime.worker import serve_shard
from repro.streams import StreamTuple, TumblingTimeWindow
from repro.streams.batch import TupleBatch
from repro.streams.serialization import decode_batch, encode_batch_wire

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def passthrough_plan():
    """A bare source: the shard's results are exactly its input rows."""
    return Stream.source("s", values=("m", "tag"), uncertain=("v",)).plan()


def agg_query():
    return (
        Stream.source("s", values=("k",), uncertain=("w",), family="gaussian")
        .window(TumblingTimeWindow(1.0))
        .aggregate("w")
    )


def make_tuples(n, start=0):
    return [
        StreamTuple(
            timestamp=(start + i) * 0.1,
            values={"k": i % 3},
            uncertain={"w": Gaussian(10.0 + i % 7, 1.0)},
        )
        for i in range(n)
    ]


def request(channel, message, timeout=10.0):
    """Send one request on a coordinator channel and wait for its reply."""
    channel.send(encode_worker_message(message))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        replies = channel.poll(0.05, lambda reply: reply)
        if replies:
            assert len(replies) == 1
            return replies[0]
    raise AssertionError(f"no reply to {message[0]!r} within {timeout} s")


def forked_roundtrip(batch):
    """Ship ``batch`` to a forked pass-through shard; decode what comes back."""
    payload = encode_batch_wire(batch)
    (channel,) = fork_shards(passthrough_plan(), [0])
    try:
        reply = request(channel, ("chunk", "s", 0, payload))
    finally:
        channel.close()
    assert reply[:3] == ("results", 0, 0)
    return payload, decode_batch(reply[3]).to_tuples()


class TestWireFormatThroughForkedShard:
    def test_empty_batch(self):
        _, rows = forked_roundtrip(TupleBatch([]))
        assert rows == []

    def test_non_finite_value_columns_round_trip(self):
        specials = [float("nan"), float("inf"), float("-inf"), 0.0, -1e300]
        batch = TupleBatch(
            [
                StreamTuple(
                    timestamp=i * 0.5,
                    values={"m": value, "tag": f"t{i}"},
                    uncertain={"v": Gaussian(1.0 + i, 2.0)},
                )
                for i, value in enumerate(specials)
            ]
        )
        _, rows = forked_roundtrip(batch)
        assert len(rows) == len(specials)
        for i, (row, value) in enumerate(zip(rows, specials)):
            got = row.value("m")
            if math.isnan(value):
                assert math.isnan(got)
            else:
                assert got == value
            assert row.value("tag") == f"t{i}"
            assert float(row.distribution("v").mean()) == 1.0 + i

    def test_payload_past_64kib_round_trips(self):
        rng = np.random.default_rng(17)
        batch = TupleBatch(
            [
                StreamTuple(
                    timestamp=i * 0.01,
                    values={"m": float(i), "tag": "x"},
                    uncertain={"v": Gaussian(float(rng.uniform(0, 100)), 2.0)},
                )
                for i in range(4000)
            ]
        )
        payload, rows = forked_roundtrip(batch)
        assert len(payload) > (64 << 10)
        assert len(rows) == 4000
        assert [r.timestamp for r in rows] == [i * 0.01 for i in range(4000)]


class TestSocketChannel:
    """The coordinator half over a plain socketpair, peer driven by hand."""

    @pytest.fixture
    def pair(self):
        ours, theirs = socket.socketpair()
        channel = SocketShardChannel(3, ours, "test peer")
        yield channel, theirs
        channel.close()
        theirs.close()

    def test_replies_sent_before_eof_come_out_before_alive_drops(self, pair):
        channel, theirs = pair
        theirs.sendall(encode_worker_message(("error", 3, "boom")))
        theirs.close()
        time.sleep(0.05)
        # The error report is handed out first, with the shard still
        # counted alive, so it wins over "gone without an error".
        assert channel.poll(1.0, lambda reply: reply) == [("error", 3, "boom")]
        assert channel.alive
        assert channel.poll(0.0, lambda reply: reply) == []
        assert not channel.alive

    def test_send_to_a_closed_peer_raises_without_a_poller(self, pair):
        channel, theirs = pair
        theirs.close()
        with pytest.raises(ConnectionError, match="shard 3"):
            for _ in range(64):  # the first writes may still be buffered
                channel.send(bytes(1 << 16))

    def test_close_sends_stop(self, pair):
        channel, theirs = pair
        channel.close()
        frame = recv_frame_bytes(theirs)
        assert decode_worker_message(*parse_frame(frame)) == ("stop",)
        with pytest.raises(ConnectionClosed):
            recv_frame_bytes(theirs)


class TestWorkerLoop:
    def test_serve_shard_ends_on_eof(self):
        """A coordinator that goes away without a stop ends the loop."""
        ours, theirs = socket.socketpair()
        runner = ShardRunner(0, passthrough_plan())
        outcome = []

        def serve():
            try:
                serve_shard(runner, theirs)
            except ConnectionClosed:
                outcome.append("eof")

        thread = threading.Thread(target=serve)
        thread.start()
        ours.sendall(encode_worker_message(("stats",)))
        reply = decode_worker_message(*parse_frame(recv_frame_bytes(ours)))
        assert reply[:2] == ("stats", 0)
        ours.close()
        thread.join(timeout=5)
        theirs.close()
        assert outcome == ["eof"]

    def test_each_forked_worker_answers_as_its_shard(self):
        channels = fork_shards(agg_query().plan(), [0, 1, 2])
        try:
            for shard, channel in enumerate(channels):
                assert request(channel, ("stats",))[:2] == ("stats", shard)
                assert channel.transport == "socket"
                assert f"pid {channel.process.pid}" in repr(channel)
        finally:
            for channel in channels:
                channel.close()
        assert all(channel.process.exitcode == 0 for channel in channels)

    def test_worker_exits_on_eof_without_a_stop(self):
        (channel,) = fork_shards(agg_query().plan(), [0])
        channel.sock.close()  # no stop frame: the worker only sees EOF
        channel.process.join(timeout=5)
        assert channel.process.exitcode == 0


def socket_inodes(pid):
    """Inodes of the sockets open in process ``pid``."""
    inodes = set()
    fd_dir = f"/proc/{pid}/fd"
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, fd))
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:[") : -1]))
    return inodes


COORDINATOR_SCRIPT = textwrap.dedent(
    """
    import multiprocessing, sys, time
    from repro import QuerySession
    from repro.distributions import Gaussian
    from repro.streams import StreamTuple

    queries = int(sys.argv[1])
    session = QuerySession(workers=2, shard_backend="process")
    session.create_stream("s", values=("k",), uncertain=("w",), family="gaussian")
    for q in range(queries):
        session.register(
            f"totals{q}", "SELECT SUM(w) AS total FROM s [RANGE 1 SECONDS SLIDE 1 SECONDS]"
        )
    session.push_many("s", [
        StreamTuple(timestamp=i * 0.1, values={"k": i % 3},
                    uncertain={"w": Gaussian(10.0 + i % 7, 1.0)})
        for i in range(300)
    ])
    pids = [child.pid for child in multiprocessing.active_children()]
    print("READY", *pids, flush=True)
    time.sleep(120)  # killed long before this expires
    """
)


class TestProcessHygiene:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
    def test_workers_hold_no_shard_socket_but_their_own(self):
        # Sockets this process held before (other tests' servers, say)
        # are not the engine's to close.
        before = socket_inodes(os.getpid())
        with ShardedEngine(agg_query(), workers=2, backend="process") as first:
            with ShardedEngine(agg_query(), workers=3, backend="process") as second:
                channels = first._channels + second._channels
                coordinator_ends = {
                    os.fstat(channel.sock.fileno()).st_ino for channel in channels
                }
                own_ends = [
                    socket_inodes(channel.process.pid) - before for channel in channels
                ]
                ours = socket_inodes(os.getpid())
        # Each worker holds exactly one connection, no coordinator end
        # (of its own engine or the other one), and no sibling's end.
        assert all(len(held) == 1 for held in own_ends)
        assert not set.union(*own_ends) & coordinator_ends
        assert len(set.union(*own_ends)) == 5
        # The coordinator kept none of the workers' ends.
        assert not set.union(*own_ends) & ours

    @pytest.mark.parametrize("queries", [1, 2])
    def test_sigkilled_coordinator_takes_its_workers_with_it(
        self, queries, still_running_after
    ):
        """SIGKILL the coordinator alone, not its group: its workers read EOF."""
        child = subprocess.Popen(
            [sys.executable, "-c", COORDINATOR_SCRIPT, str(queries)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC),
            start_new_session=True,
            text=True,
        )
        try:
            marker, *pids = child.stdout.readline().split()
            assert marker == "READY", child.stderr.read()
            workers = [int(pid) for pid in pids]
            assert len(workers) == 2 * queries
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
            assert still_running_after(workers, 2.0) == []
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)  # strays, if any
            except ProcessLookupError:
                pass
            child.wait(timeout=30)
            child.stdout.close()
            child.stderr.close()

    def test_close_reaps_every_worker(self):
        engine = ShardedEngine(agg_query(), workers=3, backend="process")
        engine.push_many("s", make_tuples(100))
        engine.finish()
        processes = [channel.process for channel in engine._channels]
        engine.close()
        assert [process.exitcode for process in processes] == [0, 0, 0]

    def test_chunk_frames_larger_than_the_socket_buffer(self):
        """Frames of several MiB ship in pieces through the send backlog."""
        tuples = make_tuples(60_000)
        reference = agg_query().compile()
        reference.push_many("s", tuples)
        expected = reference.finish()
        with ShardedEngine(
            agg_query(), workers=2, backend="process", chunk_size=30_000
        ) as engine:
            engine.push_many("s", tuples)
            got = engine.finish()
        assert len(got) == len(expected) > 0
        for a, b in zip(expected, got):
            assert a.value("window_start") == b.value("window_start")
            da, db = a.distribution("sum_w"), b.distribution("sum_w")
            assert abs(float(da.mean()) - float(db.mean())) <= 1e-9 * abs(float(da.mean()))
            assert abs(float(da.variance()) - float(db.variance())) <= 1e-9 * float(da.variance())

    @pytest.mark.parametrize("surfaces_at", ["push", "finish"])
    def test_killed_worker_surfaces_as_shard_error_naming_it(self, surfaces_at):
        with ShardedEngine(
            agg_query(), workers=2, backend="process", chunk_size=16
        ) as engine:
            engine.push_many("s", make_tuples(200))
            engine.quiesce()
            victim = engine._channels[1].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5)
            started = time.monotonic()
            with pytest.raises(ShardError, match="shard 1 "):
                if surfaces_at == "push":
                    for start in range(200, 20_000, 200):
                        engine.push_many("s", make_tuples(200, start=start))
                engine.finish()
            assert time.monotonic() - started < 5.0
