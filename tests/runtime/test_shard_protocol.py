"""One protocol script, every transport.

The same request sequence — traced chunks, flush, stats, snapshot,
restore, more chunks, flush — is driven through ``ShardRunner.handle``
directly, the inline channel, a worker forked the way the engine forks
its shards (its end of a socketpair) and a TCP ``ShardServer``.  Every transport must answer with the
same verbs, tokens, watermarks and decoded rows, and every sampled
chunk must leave exactly one ``shard.exec`` span: in this process's
buffer for the in-process transports, on the ``results`` reply for the
out-of-process ones.
"""

import pytest

from repro import obs
from repro.distributions import Gaussian
from repro.net import ShardServer
from repro.net.protocol import encode_worker_message
from repro.plan import Stream
from repro.runtime import ShardRunner, SocketShardChannel
from repro.runtime.transport import InlineShardChannel, fork_shards
from repro.runtime.worker import plan_signature
from repro.streams import StreamTuple, TumblingTimeWindow
from repro.streams.batch import TupleBatch
from repro.streams.serialization import decode_batch, encode_batch_wire

SHARD = 1
TRACE = 0x5A


def agg_query():
    return (
        Stream.source("s", values=("k",), uncertain=("w",), family="gaussian")
        .window(TumblingTimeWindow(1.0))
        .aggregate("w")
    )


def chunk_payload(start, n, trace_id=None):
    batch = TupleBatch(
        [
            StreamTuple(
                timestamp=(start + i) * 0.1,
                values={"k": i % 3},
                uncertain={"w": Gaussian(10.0 + (start + i) % 7, 1.0)},
            )
            for i in range(n)
        ]
    )
    if trace_id is not None:
        batch.trace_id = trace_id
        batch.t_ingest = 1.0
    return encode_batch_wire(batch)


def canonical_rows(payload):
    return [
        (
            row.timestamp,
            dict(row.values),
            {
                key: (float(row.distribution(key).mean()), float(row.distribution(key).variance()))
                for key in row.uncertain
            },
        )
        for row in decode_batch(payload).to_tuples()
    ]


def normalize(reply):
    """A transport-independent view of one reply, plus its shipped spans."""
    verb, shard = reply[0], reply[1]
    if verb == "results":
        _, _, chunk_id, payload, watermark = reply[:5]
        spans = list(reply[5]) if len(reply) > 5 else []
        return (verb, shard, chunk_id, canonical_rows(payload), watermark), spans
    if verb == "flushed":
        return (verb, shard, reply[2], canonical_rows(reply[3])), []
    if verb == "stats":
        return (verb, shard, [tuple(row[:4]) for row in reply[2]]), []
    if verb == "snapshot":
        return (verb, shard, reply[2], bytes(reply[3])), []
    return tuple(reply), []


def run_script(call):
    """Drive the protocol script; ``call(message)`` returns one normalized reply."""
    replies, spans = [], []
    requests = [
        ("chunk", "s", 0, chunk_payload(0, 25, trace_id=TRACE)),
        ("chunk", "s", 1, chunk_payload(25, 12)),
        ("flush", 1),
        ("stats",),
        ("snapshot", 2),
    ]
    for message in requests:
        reply, shipped = call(message)
        replies.append(reply)
        spans.extend(shipped)
    for message in [
        ("restore", 3, replies[-1][3]),
        ("chunk", "s", 2, chunk_payload(40, 18, trace_id=TRACE)),
        ("flush", 4),
    ]:
        reply, shipped = call(message)
        replies.append(reply)
        spans.extend(shipped)
    return replies, spans


def polled(channel, frame):
    """Send one frame on a coordinator channel and wait for its reply."""
    channel.send(frame)
    for _ in range(200):
        got = channel.poll(0.05, normalize)
        if got:
            assert len(got) == 1
            return got[0]
    raise AssertionError("no reply within 10 s")


@pytest.fixture
def traced():
    previous = obs.set_trace_sample(1)
    obs.local_spans().clear()
    yield
    obs.set_trace_sample(previous)
    obs.local_spans().clear()


@pytest.fixture
def server():
    server = ShardServer(agg_query()).start_in_thread()
    yield server
    server.close()


def run_direct(plan):
    runner = ShardRunner(SHARD, plan)
    return run_script(lambda message: normalize(runner.handle(message)))


def run_inline(plan):
    got = []
    channel = InlineShardChannel(ShardRunner(SHARD, plan), got.append)

    def call(message):
        channel.send(encode_worker_message(message))
        return normalize(got.pop())

    return run_script(call)


def run_forked(plan):
    (channel,) = fork_shards(plan, [SHARD])
    try:
        return run_script(
            lambda message: polled(channel, encode_worker_message(message))
        )
    finally:
        channel.close()
        assert not channel.process.is_alive()


def run_socket(server):
    channel = SocketShardChannel.attach(
        SHARD, server.address, plan_signature=plan_signature(server.local_plan)
    )
    try:
        return run_script(
            lambda message: polled(channel, encode_worker_message(message))
        )
    finally:
        channel.close()


def exec_spans(spans):
    return sorted(
        (span["span"], span["parent"]) for span in spans if span["name"] == "shard.exec"
    )


EXPECTED_EXEC = sorted(
    (obs.exec_span_id(TRACE, SHARD, chunk), obs.chunk_span_id(TRACE, SHARD, chunk))
    for chunk in (0, 2)
)


class TestOneScriptEveryTransport:
    def test_replies_and_spans_agree(self, traced, server):
        plan = server.local_plan

        reference, shipped = run_direct(plan)
        assert shipped == []
        assert exec_spans(obs.local_spans().drain()) == EXPECTED_EXEC

        verbs = [reply[0] for reply in reference]
        assert verbs == [
            "results", "results", "flushed", "stats", "snapshot",
            "restored", "results", "flushed",
        ]
        assert reference[0][3], "the first chunk closes windows"
        assert reference[5] == ("restored", SHARD, 3)
        assert [reply[2] for reply in reference if reply[0] == "flushed"] == [1, 4]

        inline, shipped = run_inline(plan)
        assert shipped == []
        assert exec_spans(obs.local_spans().drain()) == EXPECTED_EXEC

        forked, shipped = run_forked(plan)
        assert exec_spans(shipped) == EXPECTED_EXEC

        remote, shipped = run_socket(server)
        assert exec_spans(shipped) == EXPECTED_EXEC
        # The in-thread server drained what it recorded into its replies.
        assert obs.local_spans().drain() == []

        assert inline == reference
        assert forked == reference
        assert remote == reference
