"""ShardedEngine lifecycle: fallback, errors, statistics, backpressure."""

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
        with pytest.raises(PlanError, match="workers"):
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

    def test_workers_zero_pins_fallback(self):
        with ShardedEngine(agg_query(), workers=0) as engine:
            assert not engine.sharded
            assert "workers=0" in engine.decision.reason

    def test_unknown_source_rejected(self):
        with ShardedEngine(agg_query(), workers=2, backend="inline") as engine:
            with pytest.raises(PlanError, match="unknown source"):
                engine.push("nope", tuples(1)[0])


class TestFallback:
    def test_count_window_falls_back_but_runs(self):
        query = (
            Stream.source("s", uncertain=("w",), family="gaussian")
            .window(TumblingCountWindow(10))
            .aggregate("w")
        )
        with ShardedEngine(query, workers=2, backend="process") as engine:
            assert not engine.sharded
            assert "time" in engine.decision.reason
            engine.push_many("s", tuples(35))
            results = engine.finish()
        assert len(results) == 4  # 3 full windows + 1 flushed partial
        stats = engine.statistics()
        assert stats.shards == {}
        assert stats.coordinator, "fallback must still report engine boxes"
        assert "single-engine fallback" in engine.explain()

    def test_fallback_sink_receives_results_incrementally(self):
        query = rowwise_query()
        with ShardedEngine(query, workers=0) as engine:
            engine.push_many("s", tuples(50))
            mid = len(engine.results)
            engine.push_many("s", tuples(50, start=100.0))
            assert len(engine.results) > mid


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
