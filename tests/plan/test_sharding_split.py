"""Unit tests for the partition-aware planner pass (repro.plan.sharding)."""

import pytest

from repro.core.aggregation import CFInversionSum
from repro.plan import Stream, explain_sharding, split_for_sharding
from repro.plan.nodes import AggregateNode, ProbFilterNode
from repro.plan.planner import Planner
from repro.plan.sharding import PARTIAL_SOURCE
from repro.streams import (
    NowWindow,
    SlidingTimeWindow,
    TumblingCountWindow,
    TumblingTimeWindow,
)
from repro.streams.operators.base import PassThroughOperator


def optimized(stream):
    planner = Planner()
    plan, _ = planner.optimize(stream.plan())
    return plan, planner.cost_model


def q1_like():
    return (
        Stream.source("rfid", values=("tag_id",), uncertain=("x",), rate_hint=5.0)
        .derive(values={"weight": lambda t: 1.0, "area": lambda t: 0})
        .where(lambda t: True, uses=("tag_id",), description="in catalog")
        .window(TumblingTimeWindow(5.0))
        .group_by(lambda t: t.value("area"))
        .aggregate("weight")
        .having(200.0, min_probability=0.5)
    )


class TestAggregateSplit:
    def test_q1_splits_into_partial_plus_merge(self):
        plan, cost_model = optimized(q1_like())
        decision = split_for_sharding(plan, cost_model)
        assert decision.shardable
        assert not decision.ordered
        spec = decision.merge
        assert spec.function == "sum"
        assert spec.output_attribute == "sum_weight"
        assert spec.partial_attribute == "partial_sum_weight"
        assert spec.grouped
        assert spec.having is not None and spec.having.threshold == 200.0
        assert spec.strategy is not None and spec.strategy.supports_moments
        # The local segment's aggregate has HAVING stripped and the
        # partial output name; the original plan is untouched.
        local_explain = decision.local.explain()
        assert "having" not in local_explain.lower()
        assert decision.suffix is None

    def test_avg_partials_ship_as_sums(self):
        stream = (
            Stream.source("s", uncertain=("w",), family="gaussian")
            .window(TumblingTimeWindow(1.0))
            .aggregate("w", function="avg")
        )
        plan, cost_model = optimized(stream)
        decision = split_for_sharding(plan, cost_model)
        assert decision.shardable
        assert decision.merge.function == "avg"
        assert "sum" in decision.local.explain()

    def test_select_then_aggregate_splits(self):
        stream = (
            Stream.source("s", uncertain=("w",), family="gaussian", rate_hint=100.0)
            .where_probably("w", ">", 50.0)
            .window(TumblingTimeWindow(1.0))
            .aggregate("w")
        )
        plan, cost_model = optimized(stream)
        decision = split_for_sharding(plan, cost_model)
        assert decision.shardable
        # Each shard runs the selection (its unread annotation dropped)
        # into the partial aggregate.
        (partial,) = decision.local.outputs
        assert isinstance(partial, AggregateNode)
        assert partial.output_attribute == "partial_sum_w"
        assert isinstance(partial.input, ProbFilterNode)
        assert partial.input.annotate is None

    def test_row_wise_suffix_moves_to_coordinator(self):
        stream = (
            Stream.source("s", uncertain=("w",), family="gaussian")
            .window(TumblingTimeWindow(1.0))
            .aggregate("w")
            .summarize("sum_w", confidence=0.9)
        )
        plan, cost_model = optimized(stream)
        decision = split_for_sharding(plan, cost_model)
        assert decision.shardable
        assert decision.suffix is not None
        suffix_explain = decision.suffix.explain()
        assert "Summarize" in suffix_explain
        assert PARTIAL_SOURCE in suffix_explain


class TestRowWisePlans:
    def test_filter_chain_is_ordered_chunk_merge(self):
        stream = (
            Stream.source("s", values=("k",), uncertain=("w",))
            .where(lambda t: True, uses=("k",))
            .where_probably("w", ">", 0.0)
        )
        decision = split_for_sharding(stream.plan())
        assert decision.shardable
        assert decision.ordered
        assert decision.merge is None

    def test_now_window_aggregate_is_row_wise(self):
        stream = (
            Stream.source("s", uncertain=("w",))
            .window(NowWindow())
            .aggregate("w", function="max")
        )
        decision = split_for_sharding(stream.plan())
        assert decision.shardable and decision.ordered

    def test_union_of_row_wise_branches_shards(self):
        a = Stream.source("a", uncertain=("w",)).where_probably("w", ">", 0.0)
        b = Stream.source("b", uncertain=("w",)).where_probably("w", ">", 0.0)
        decision = split_for_sharding(a.union(b).plan())
        assert decision.shardable and decision.ordered


class TestUnshardablePlans:
    @pytest.mark.parametrize(
        "window", [TumblingCountWindow(10), SlidingTimeWindow(3.0)], ids=["count", "sliding"]
    )
    def test_non_time_windows_fall_back(self, window):
        stream = Stream.source("s", uncertain=("w",)).window(window).aggregate("w")
        decision = split_for_sharding(stream.plan())
        assert not decision.shardable
        assert "time" in decision.reason

    def test_join_falls_back(self):
        stream = Stream.source("a", uncertain=("x",)).join(
            Stream.source("b", uncertain=("x",)), on=lambda l, r: 0.5, window_length=3.0
        )
        decision = split_for_sharding(stream.plan())
        assert not decision.shardable
        assert "join" in decision.reason.lower()

    def test_pipe_falls_back(self):
        stream = Stream.source("s", uncertain=("w",)).pipe(PassThroughOperator())
        decision = split_for_sharding(stream.plan())
        assert not decision.shardable

    def test_max_over_time_window_falls_back(self):
        stream = (
            Stream.source("s", uncertain=("w",))
            .window(TumblingTimeWindow(1.0))
            .aggregate("w", function="max")
        )
        decision = split_for_sharding(stream.plan())
        assert not decision.shardable
        assert "order statistics" in decision.reason

    def test_non_moment_strategy_falls_back(self):
        stream = (
            Stream.source("s", uncertain=("w",))
            .window(TumblingTimeWindow(1.0))
            .aggregate("w", strategy=CFInversionSum())
        )
        decision = split_for_sharding(stream.plan())
        assert not decision.shardable
        assert "moment-closed" in decision.reason

    def test_multi_output_falls_back(self):
        from repro.plan.nodes import LogicalPlan

        shared = Stream.source("s", uncertain=("w",))
        plan = LogicalPlan(
            outputs=(
                shared.where_probably("w", ">", 0.0).node,
                shared.where_probably("w", "<", 0.0).node,
            ),
            names=("hi", "lo"),
        )
        decision = split_for_sharding(plan)
        assert not decision.shardable
        assert "multi-output" in decision.reason


class TestExplainSharding:
    def test_sharded_report_names_segments(self):
        plan, cost_model = optimized(q1_like())
        report = explain_sharding(split_for_sharding(plan, cost_model), workers=4)
        assert "workers: 4" in report
        assert "Shard-local segment" in report
        assert "Coordinator merge" in report
        assert "HAVING on merged result" in report

    def test_unsharded_report_carries_reason(self):
        stream = Stream.source("a", uncertain=("x",)).join(
            Stream.source("b", uncertain=("x",)), on=lambda l, r: 0.5, window_length=3.0
        )
        report = explain_sharding(split_for_sharding(stream.plan()), workers=2)
        assert "sharded: no (runs in-process)" in report
        assert "reason:" in report
