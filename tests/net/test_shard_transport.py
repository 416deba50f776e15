"""Socket shard transport: remote shards behave exactly like forked ones."""

import socket

import numpy as np
import pytest

from repro.distributions import Gaussian
from repro.net import ShardServer, protocol, spawn_shard_server
from repro.net.framing import recv_frame, send_frame
from repro.plan import Stream
from repro.plan.nodes import PlanError
from repro.runtime import ShardedEngine, ShardError
from repro.streams import StreamTuple, TumblingTimeWindow


def aggregate_query():
    """Select -> tumbling-window SUM: the aggregate-split sharding shape."""
    stream = Stream.source("s", uncertain=("value",), family="gaussian", rate_hint=100.0)
    stream = stream.where_probably("value", ">", 20.0, min_probability=0.2, annotate=None)
    return stream.window(TumblingTimeWindow(2.0)).aggregate("value")


def rowwise_query():
    """A pure filter chain: the ordered-chunk-merge sharding shape."""
    stream = Stream.source("s", uncertain=("value",), family="gaussian", rate_hint=100.0)
    return stream.where_probably("value", ">", 40.0, min_probability=0.4, annotate=None)


def make_tuples(n=4000, seed=3):
    rng = np.random.default_rng(seed)
    return [
        StreamTuple(
            timestamp=i * 0.01,
            uncertain={"value": Gaussian(float(rng.uniform(10.0, 90.0)), 2.0)},
        )
        for i in range(n)
    ]


def run_reference(build, tuples):
    query = build().compile()
    query.push_many("s", tuples)
    return query.finish()


def assert_equivalent(expected, got, assert_tuples_equivalent):
    assert_tuples_equivalent(expected, got)


class TestRemoteShardEquivalence:
    @pytest.mark.parametrize("build", [aggregate_query, rowwise_query])
    def test_single_remote_shard_matches_single_engine(
        self, build, assert_tuples_equivalent
    ):
        tuples = make_tuples()
        expected = run_reference(build, tuples)
        server = ShardServer(build()).start_in_thread()
        try:
            with ShardedEngine(
                build(),
                workers=1,
                backend="process",
                chunk_size=512,
                remote_shards=[server.address],
            ) as engine:
                engine.push_many("s", tuples)
                got = engine.finish()
        finally:
            server.close()
        assert_tuples_equivalent(expected, got)

    def test_mixed_forked_and_remote_shards(self, assert_tuples_equivalent):
        tuples = make_tuples()
        expected = run_reference(aggregate_query, tuples)
        process, address = spawn_shard_server(aggregate_query())
        try:
            with ShardedEngine(
                aggregate_query(),
                workers=2,
                backend="process",
                chunk_size=512,
                remote_shards=[address],
            ) as engine:
                engine.push_many("s", tuples)
                got = engine.finish()
                transports = {
                    shard: report.transport
                    for shard, report in engine.shard_statistics().items()
                }
                assert transports == {0: "socket", 1: "socket"}
        finally:
            process.terminate()
            process.join(timeout=5)
        assert_tuples_equivalent(expected, got)

    def test_queue_capacity_bounds_remote_in_flight_chunks(self):
        tuples = make_tuples(2000)
        process, address = spawn_shard_server(aggregate_query())
        try:
            with ShardedEngine(
                aggregate_query(),
                workers=1,
                backend="process",
                chunk_size=8,
                queue_capacity=1,
                remote_shards=[address],
            ) as engine:
                in_flight = []
                send = engine._send

                def record(shard, message):
                    if message[0] == "chunk":
                        in_flight.append(engine.shard_statistics()[0].in_flight_chunks)
                    send(shard, message)

                engine._send = record
                engine.push_many("s", tuples)
                engine.finish()
                report = engine.shard_statistics()[0]
        finally:
            process.terminate()
            process.join(timeout=5)
        assert len(in_flight) == 250
        assert max(in_flight) == 1
        assert report.transport == "socket"
        assert report.stalls > 0

    def test_killed_remote_shard_surfaces_as_shard_error_naming_it(self):
        process, address = spawn_shard_server(aggregate_query())
        try:
            with ShardedEngine(
                aggregate_query(),
                workers=2,
                backend="process",
                chunk_size=64,
                remote_shards=[address],
            ) as engine:
                engine.push_many("s", make_tuples(1000))
                engine.quiesce()
                process.kill()
                process.join(timeout=5)
                with pytest.raises(ShardError, match="shard 1 "):
                    for seed in range(50):
                        engine.push_many("s", make_tuples(1000, seed=seed))
                    engine.finish()
        finally:
            process.kill()
            process.join(timeout=5)

    def test_remote_shard_serves_statistics(self):
        tuples = make_tuples(1000)
        server = ShardServer(aggregate_query()).start_in_thread()
        try:
            with ShardedEngine(
                aggregate_query(),
                workers=1,
                backend="process",
                chunk_size=256,
                remote_shards=[server.address],
            ) as engine:
                engine.push_many("s", tuples)
                engine.finish()
                stats = engine.statistics()
                assert 0 in stats.shards and stats.shards[0]
                assert stats.backpressure[0].transport == "socket"
                assert stats.backpressure[0].chunks_sent > 0
                assert stats.backpressure[0].in_flight_chunks == 0
        finally:
            server.close()

    def test_reconnect_gets_fresh_shard_state(self, assert_tuples_equivalent):
        """Each attach builds a new runner — no leakage across coordinators."""
        tuples = make_tuples(2000)
        expected = run_reference(aggregate_query, tuples)
        server = ShardServer(aggregate_query()).start_in_thread()
        try:
            for _ in range(2):
                with ShardedEngine(
                    aggregate_query(),
                    workers=1,
                    backend="process",
                    chunk_size=512,
                    remote_shards=[server.address],
                ) as engine:
                    engine.push_many("s", tuples)
                    got = engine.finish()
                assert_tuples_equivalent(expected, got)
            assert server.served_coordinators >= 1
        finally:
            server.close()


class TestValidation:
    def test_remote_requires_process_backend(self):
        with pytest.raises(PlanError, match="process"):
            ShardedEngine(
                aggregate_query(),
                workers=1,
                backend="inline",
                remote_shards=["127.0.0.1:1"],
            )

    def test_more_addresses_than_slots_rejected(self):
        with pytest.raises(PlanError, match="shard slots"):
            ShardedEngine(
                aggregate_query(),
                workers=1,
                remote_shards=["127.0.0.1:1", "127.0.0.1:2"],
            )

    def test_unreachable_address_fails_at_construction(self):
        with pytest.raises(OSError):
            ShardedEngine(
                aggregate_query(),
                workers=1,
                backend="process",
                remote_shards=["127.0.0.1:1"],  # nothing listens on port 1
            )

    def test_shard_server_rejects_unshardable_plans(self):
        join_left = Stream.source("l", uncertain=("x",))
        join_right = Stream.source("r", uncertain=("x",))
        joined = join_left.join(
            join_right,
            on=lambda a, b: 1.0,
            window_length=10.0,
            min_probability=0.0,
        )
        with pytest.raises(PlanError, match="remote shard"):
            ShardServer(joined)

    def test_attach_to_a_server_hosting_a_different_plan_fails(self):
        """The plan-signature handshake turns silent wrong-merge into an error."""
        server = ShardServer(rowwise_query()).start_in_thread()
        try:
            with pytest.raises(ConnectionError, match="plan mismatch"):
                ShardedEngine(
                    aggregate_query(),
                    workers=1,
                    backend="process",
                    remote_shards=[server.address],
                )
        finally:
            server.close()

    @pytest.mark.parametrize(
        "header",
        [
            {"signature": None},
            {"shard": "0"},
            {"shard": -1},
            {"shard": True},
            {"shard": 0, "signature": 5},
        ],
    )
    def test_malformed_attach_is_answered_and_the_server_survives(
        self, header, assert_tuples_equivalent
    ):
        tuples = make_tuples(2000)
        expected = run_reference(aggregate_query, tuples)
        server = ShardServer(aggregate_query()).start_in_thread()
        try:
            with socket.create_connection(
                protocol.parse_address(server.address), timeout=10.0
            ) as sock:
                send_frame(sock, protocol.SHARD_ATTACH, header)
                reply = protocol.decode_worker_message(*recv_frame(sock))
            assert reply[0] == "error"
            assert "SHARD_ATTACH" in reply[2]
            with ShardedEngine(
                aggregate_query(),
                workers=1,
                backend="process",
                chunk_size=512,
                remote_shards=[server.address],
            ) as engine:
                engine.push_many("s", tuples)
                got = engine.finish()
        finally:
            server.close()
        assert_tuples_equivalent(expected, got)

    def test_dead_remote_shard_surfaces_as_shard_error(self):
        tuples = make_tuples(3000)
        server = ShardServer(aggregate_query()).start_in_thread()
        engine = ShardedEngine(
            aggregate_query(),
            workers=1,
            backend="process",
            chunk_size=128,
            remote_shards=[server.address],
        )
        try:
            server.close()  # kill the shard under the engine
            with pytest.raises(ShardError):
                engine.push_many("s", tuples)
                engine.finish()
        finally:
            engine.close()
