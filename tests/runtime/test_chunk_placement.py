"""Chunk placement: chunk ``c`` goes to shard ``c % workers``.

Placement is one fixed rule, so these tests pin the rule itself (for
several worker counts), that it continues across a checkpoint, that a
stream too short to reach every shard still merges to the single-engine
results, and that neither checkpoints nor ``explain()`` describe any
other placement policy.
"""

import numpy as np
import pytest

from repro.distributions import Gaussian
from repro.plan import Stream
from repro.runtime import ShardedEngine
from repro.streams import StreamTuple, TumblingTimeWindow

CHUNK_SIZE = 16
TOLERANCE = 1e-9


def aggregate_query():
    return (
        Stream.source("s", values=("tag",), uncertain=("v",), family="gaussian")
        .window(TumblingTimeWindow(0.5))
        .aggregate("v")
    )


def rowwise_query():
    return Stream.source("s", values=("tag",), uncertain=("v",)).where_probably(
        "v", ">", 40.0, min_probability=0.5
    )


def make_tuples(n, start=0):
    rng = np.random.default_rng(23)
    return [
        StreamTuple(
            timestamp=(start + i) * 0.05,
            values={"tag": i % 5},
            uncertain={"v": Gaussian(float(rng.uniform(10.0, 90.0)), 2.0)},
        )
        for i in range(n)
    ]


def record_placement(engine):
    """Wrap ``engine._send`` to log ``(chunk_id, shard)`` of every chunk."""
    placed = []
    send = engine._send

    def record(shard, message):
        if message[0] == "chunk":
            placed.append((message[2], shard))
        send(shard, message)

    engine._send = record
    return placed


def single_engine_results(query, tuples):
    compiled = query().compile()
    compiled.push_many("s", tuples)
    return compiled.finish()


def assert_equivalent(expected, got):
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert set(a.values) == set(b.values)
        for key, value in a.values.items():
            if isinstance(value, float):
                assert b.values[key] == pytest.approx(value, abs=TOLERANCE), key
            else:
                assert b.values[key] == value, key
        assert set(a.uncertain) == set(b.uncertain)
        for key in a.uncertain:
            da, db = a.distribution(key), b.distribution(key)
            assert float(db.mean()) == pytest.approx(float(da.mean()), abs=TOLERANCE)
            assert float(db.variance()) == pytest.approx(
                float(da.variance()), abs=TOLERANCE
            )


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_chunk_goes_to_shard_chunk_mod_workers(workers):
    """12 chunks: ids run 0..11 and each lands on ``id % workers``."""
    with ShardedEngine(
        aggregate_query(), workers=workers, backend="inline", chunk_size=CHUNK_SIZE
    ) as engine:
        placed = record_placement(engine)
        engine.push_many("s", make_tuples(CHUNK_SIZE * 12))
        engine.finish()
        report = engine.shard_statistics()
    assert [chunk for chunk, _ in placed] == list(range(12))
    assert [shard for _, shard in placed] == [c % workers for c in range(12)]
    assert {shard: state.chunks_sent for shard, state in report.items()} == {
        shard: 12 // workers for shard in range(workers)
    }


@pytest.mark.parametrize("workers", [2, 3])
def test_rotation_continues_after_restore(workers):
    """A restored engine numbers its next chunk from the checkpoint and
    places it by the same rule, so the rotation has no seam."""
    tuples = make_tuples(CHUNK_SIZE * 8)
    split = CHUNK_SIZE * 5
    options = dict(workers=workers, backend="inline", chunk_size=CHUNK_SIZE)
    with ShardedEngine(aggregate_query(), **options) as first:
        first.push_many("s", tuples[:split])
        state = first.state_snapshot()
    assert state["next_chunk"] == 5

    with ShardedEngine(aggregate_query(), **options) as second:
        second.state_restore(state)
        placed = record_placement(second)
        second.push_many("s", tuples[split:])
        second.finish()
    assert placed == [(c, c % workers) for c in (5, 6, 7)]


@pytest.mark.parametrize("query", [aggregate_query, rowwise_query])
def test_stream_shorter_than_the_rotation_matches_single_engine(query):
    """Two chunks on four workers leave shards 2 and 3 unfed; the merge
    must not wait on them and the results equal the single engine's."""
    tuples = make_tuples(CHUNK_SIZE + 5)
    with ShardedEngine(
        query(), workers=4, backend="inline", chunk_size=CHUNK_SIZE
    ) as engine:
        placed = record_placement(engine)
        engine.push_many("s", tuples)
        engine.quiesce()
        # Results stream before finish(): only the fed shards gate them.
        streamed = engine.results
        results = engine.finish()
    assert placed == [(0, 0), (1, 1)]
    assert streamed
    expected = single_engine_results(query, tuples)
    assert expected
    assert_equivalent(expected, results)


def test_checkpoint_records_no_placement_state():
    with ShardedEngine(
        aggregate_query(), workers=2, backend="inline", chunk_size=CHUNK_SIZE
    ) as engine:
        engine.push_many("s", make_tuples(CHUNK_SIZE * 3))
        state = engine.state_snapshot()
    assert set(state) == {"mode", "next_chunk", "merger", "suffix", "shards"}


def test_explain_names_the_socket_transport_and_no_placement_policy():
    with ShardedEngine(
        aggregate_query(), workers=2, backend="process", chunk_size=CHUNK_SIZE,
        queue_capacity=8,
    ) as engine:
        text = engine.explain()
    assert "shard transport: socket" in text
    assert "chunk_size: 16, queue_capacity: 8" in text
    lowered = text.lower()
    assert "ring" not in lowered
    assert "partitioner" not in lowered
    assert "adaptive" not in lowered
    assert "weights" not in lowered
