"""ShardedEngine lifecycle: refused plans, errors, statistics, backpressure."""

import gc
import threading
import time

import pytest

from repro.distributions import Gaussian
from repro.plan import PlanError, Stream
from repro.runtime import ShardedEngine, ShardError
from repro.streams import StreamTuple, TumblingCountWindow, TumblingTimeWindow


def tuples(n, start=0.0):
    return [
        StreamTuple(
            timestamp=start + i * 0.1,
            values={"k": i % 3},
            uncertain={"w": Gaussian(10.0 + i % 7, 1.0)},
        )
        for i in range(n)
    ]


def agg_query():
    return (
        Stream.source("s", values=("k",), uncertain=("w",), family="gaussian")
        .window(TumblingTimeWindow(1.0))
        .aggregate("w")
    )


def rowwise_query():
    return Stream.source("s", values=("k",), uncertain=("w",)).where_probably(
        "w", ">", 11.0, min_probability=0.5
    )


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(PlanError, match="workers must be at least 1"):
            ShardedEngine(agg_query(), workers=-1)
        with pytest.raises(PlanError, match="backend"):
            ShardedEngine(agg_query(), backend="threads")
        with pytest.raises(PlanError, match="chunk_size"):
            ShardedEngine(agg_query(), chunk_size=0)

    @pytest.mark.parametrize(
        "option", [{"partitioner": "round_robin"}, {"ring_bytes": 1 << 22}]
    )
    def test_placement_and_ring_size_are_not_options(self, option):
        with pytest.raises(TypeError):
            ShardedEngine(rowwise_query(), workers=2, backend="inline", **option)

    def test_workers_zero_is_refused(self):
        with pytest.raises(PlanError, match="workers must be at least 1, got 0"):
            ShardedEngine(agg_query(), workers=0)

    def test_unknown_source_rejected(self):
        with ShardedEngine(agg_query(), workers=2, backend="inline") as engine:
            with pytest.raises(PlanError, match="unknown source"):
                engine.push("nope", tuples(1)[0])


class TestUnshardablePlans:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_count_window_is_refused_naming_the_blocker(self, backend):
        query = (
            Stream.source("s", uncertain=("w",), family="gaussian")
            .window(TumblingCountWindow(10))
            .aggregate("w")
        )
        with pytest.raises(PlanError) as refused:
            ShardedEngine(query, workers=2, backend=backend)
        message = str(refused.value)
        assert message.startswith("plan does not shard: Aggregate[sum(w) @ TumblingCountWindow")
        assert "only tumbling *time* windows shard" in message

    def test_join_is_refused_naming_the_blocker(self):
        query = Stream.source("a", uncertain=("x",)).join(
            Stream.source("b", uncertain=("x",)), on=lambda a, b: 0.5, window_length=3.0
        )
        with pytest.raises(PlanError, match=r"plan does not shard: Join\[.*joins, piped"):
            ShardedEngine(query, workers=2, backend="process")

    def test_restore_refuses_a_state_of_another_mode(self):
        with ShardedEngine(agg_query(), workers=2, backend="inline") as engine:
            with pytest.raises(ShardError, match="mode 'fallback', not 'sharded'"):
                engine.state_restore({"mode": "fallback", "ops": []})


class TestLifecycle:
    def test_close_is_idempotent_and_context_managed(self):
        engine = ShardedEngine(agg_query(), workers=2, backend="process")
        with engine:
            engine.push_many("s", tuples(100))
            engine.finish()
        engine.close()
        engine.close()

    def test_an_unclosed_engine_is_collected_and_its_shards_stop(self):
        engine = ShardedEngine(agg_query(), workers=2, backend="process", chunk_size=16)
        engine.push_many("s", tuples(100))
        engine.finish()
        workers = [channel.process for channel in engine._channels]
        del engine
        gc.collect()

        def leftovers():
            readers = [t for t in threading.enumerate() if t.name.startswith("repro-reader-")]
            return readers + [p for p in workers if p.is_alive()]

        deadline = time.monotonic() + 2.0
        while leftovers() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert leftovers() == []

    def test_finish_then_more_pushes(self):
        with ShardedEngine(
            agg_query(), workers=2, backend="process", chunk_size=16
        ) as engine:
            engine.push_many("s", tuples(100))
            first = len(engine.finish())
            assert first > 0
            engine.push_many("s", tuples(100, start=1000.0))
            assert len(engine.finish()) > first

    def test_push_after_close_raises(self):
        engine = ShardedEngine(agg_query(), workers=2, backend="process")
        engine.push_many("s", tuples(20))
        engine.finish()
        engine.close()
        with pytest.raises(ShardError, match="closed"):
            engine.push("s", tuples(1)[0])
        with pytest.raises(ShardError, match="closed"):
            engine.finish()
        # Collected results stay readable after close.
        assert engine.results

    def test_take_drains_results(self):
        with ShardedEngine(agg_query(), workers=2, backend="inline") as engine:
            engine.push_many("s", tuples(60))
            engine.finish()
            drained = engine.take()
            assert drained and engine.results == []

    def test_backpressure_bounded_queues_complete(self):
        # Tiny queues + many chunks: the parent must drain results while
        # its sends block, or this deadlocks (the test would time out).
        with ShardedEngine(
            rowwise_query(),
            workers=2,
            backend="process",
            chunk_size=8,
            queue_capacity=1,
        ) as engine:
            stream = tuples(2000)
            engine.push_many("s", stream)
            results = engine.finish()
        survivors = [
            t for t in stream if t.distribution("w").prob_greater_than(11.0) >= 0.5
        ]
        assert len(results) == len(survivors)


class TestWorkerErrors:
    def test_worker_failure_surfaces_as_shard_error(self):
        def explode(t):
            if t.value("k") == 2:
                raise ValueError("boom in worker")
            return 1.0

        query = (
            Stream.source("s", values=("k",), uncertain=("w",))
            .derive(values={"x": explode})
            .window(TumblingTimeWindow(1.0))
            .aggregate("w")
        )
        with ShardedEngine(query, workers=2, backend="process", chunk_size=4) as engine:
            with pytest.raises(ShardError, match="boom in worker"):
                engine.push_many("s", tuples(50))
                engine.finish()


class TestStatistics:
    def test_per_shard_statistics_cover_all_shards(self):
        with ShardedEngine(
            agg_query(), workers=3, backend="process", chunk_size=16
        ) as engine:
            engine.push_many("s", tuples(300))
            engine.finish()
            stats = engine.statistics()
        assert sorted(stats.shards) == [0, 1, 2]
        for shard, rows in stats.shards.items():
            names = [row.name for row in rows]
            assert any("UncertainAggregate" in name for name in names)
            assert sum(row.tuples_in for row in rows) > 0
        # Every input tuple went to exactly one shard's source box.
        per_shard_in = [
            next(r.tuples_in for r in rows if r.name.startswith("source:"))
            for rows in stats.shards.values()
        ]
        assert sum(per_shard_in) == 300
        assert stats.coordinator[-1].name == "sink:sharded"

    def test_explain_reports_decision_and_runtime(self):
        with ShardedEngine(agg_query(), workers=2, backend="inline") as engine:
            report = engine.explain()
        assert "sharded: yes" in report
        assert "partial" in report
        assert "backend: inline" in report
