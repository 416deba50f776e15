"""Backpressure: the in-flight chunk bound, stall counts and their reporting."""

import numpy as np
import pytest

from repro import QuerySession
from repro.distributions import Gaussian
from repro.plan import Stream
from repro.runtime import ShardBackpressure, ShardedEngine
from repro.streams import StreamTuple, TumblingTimeWindow


def build_query():
    stream = Stream.source("s", uncertain=("value",), family="gaussian", rate_hint=100.0)
    stream = stream.where_probably("value", ">", 20.0, min_probability=0.2, annotate=None)
    return stream.window(TumblingTimeWindow(2.0)).aggregate("value")


def make_tuples(n):
    rng = np.random.default_rng(11)
    return [
        StreamTuple(
            timestamp=i * 0.01,
            uncertain={"value": Gaussian(float(rng.uniform(10.0, 90.0)), 2.0)},
        )
        for i in range(n)
    ]


def record_in_flight(engine):
    """In-flight chunks of the target shard at every chunk send."""
    seen = []
    send = engine._send

    def record(shard, message):
        if message[0] == "chunk":
            seen.append(engine.shard_statistics()[shard].in_flight_chunks)
        send(shard, message)

    engine._send = record
    return seen


class TestShardedEngineBackpressure:
    def test_process_backend_reports_per_shard_state(self):
        with ShardedEngine(
            build_query(), workers=2, backend="process", chunk_size=256
        ) as engine:
            engine.push_many("s", make_tuples(4000))
            engine.finish()
            report = engine.shard_statistics()
            assert set(report) == {0, 1}
            for shard, state in report.items():
                assert isinstance(state, ShardBackpressure)
                assert state.shard == shard
                assert state.transport == "socket"
                assert state.chunks_sent > 0
                # After finish() everything shipped has been answered.
                assert state.in_flight_chunks == 0
                assert state.send_backlog_bytes == 0
                assert state.stalls >= 0

    def test_stalls_accumulate_when_workers_lag(self):
        """A tiny queue bound forces the coordinator into its drain loop."""
        with ShardedEngine(
            build_query(),
            workers=1,
            backend="process",
            chunk_size=8,
            queue_capacity=1,
        ) as engine:
            engine.push_many("s", make_tuples(4000))
            engine.finish()
            report = engine.shard_statistics()
            assert report[0].chunks_sent == 500
            assert report[0].stalls > 0

    @pytest.mark.parametrize(
        "backend, capacity", [("process", 1), ("process", 3), ("inline", 1)]
    )
    def test_in_flight_chunks_never_exceed_queue_capacity(self, backend, capacity):
        with ShardedEngine(
            build_query(),
            workers=2,
            backend=backend,
            chunk_size=8,
            queue_capacity=capacity,
        ) as engine:
            in_flight = record_in_flight(engine)
            engine.push_many("s", make_tuples(2000))
            engine.finish()
        assert len(in_flight) == 250
        assert max(in_flight) <= capacity

    def test_inline_backend_reports_inline_transport(self):
        with ShardedEngine(
            build_query(), workers=2, backend="inline", chunk_size=64
        ) as engine:
            engine.push_many("s", make_tuples(500))
            engine.finish()
            report = engine.shard_statistics()
            assert {state.transport for state in report.values()} == {"inline"}
            assert all(state.in_flight_chunks == 0 for state in report.values())

    def test_statistics_carry_backpressure(self):
        with ShardedEngine(
            build_query(), workers=2, backend="inline", chunk_size=64
        ) as engine:
            engine.push_many("s", make_tuples(500))
            engine.finish()
            stats = engine.statistics()
            assert set(stats.backpressure) == {0, 1}
            assert stats.backpressure[0].chunks_sent > 0

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_chunks_rotate_across_shards(self, backend):
        """Chunk ``c`` goes to shard ``c % workers``; counts split evenly."""
        with ShardedEngine(
            build_query(), workers=2, backend=backend, chunk_size=16
        ) as engine:
            placed = []
            send = engine._send

            def record(shard, message):
                if message[0] == "chunk":
                    placed.append((message[2], shard))
                send(shard, message)

            engine._send = record
            engine.push_many("s", make_tuples(16 * 64))
            engine.finish()
            report = engine.shard_statistics()
        assert [chunk for chunk, _ in placed] == list(range(64))
        assert all(shard == chunk % 2 for chunk, shard in placed)
        assert report[0].chunks_sent == report[1].chunks_sent == 32


class TestSessionBackpressure:
    def test_shard_statistics_exposes_backpressure(self):
        with QuerySession(workers=2, shard_backend="inline") as session:
            session.create_stream("s", uncertain=("value",), family="gaussian")
            session.register(
                "totals",
                "SELECT SUM(value) AS total FROM s [RANGE 2 SECONDS SLIDE 2 SECONDS]",
            )
            session.push_many("s", make_tuples(500))
            session.flush()
            stats = session.shard_statistics("totals")
            assert set(stats.backpressure) == {0, 1}
            assert all(
                state.in_flight_chunks == 0 for state in stats.backpressure.values()
            )

    def test_engine_hosted_query_has_no_shard_statistics(self):
        session = QuerySession()
        session.create_stream("s", uncertain=("value",), family="gaussian")
        session.register("hot", "SELECT * FROM s WHERE value > 40 WITH PROBABILITY 0.5")
        with pytest.raises(Exception, match="sharded"):
            session.shard_statistics("hot")
