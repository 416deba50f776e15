"""Tests for the Stream builder: fluent surface, schema checks, DAG shapes."""

import pytest

from repro.core import CLTSum
from repro.distributions import Gaussian
from repro.plan import (
    AggregateNode,
    FilterNode,
    JoinNode,
    PlanError,
    ProbFilterNode,
    SourceNode,
    Stream,
    UnionNode,
    compile_streams,
)
from repro.streams import PassThroughOperator, StreamTuple, TumblingCountWindow


def weight_tuple(i, mean, group="A"):
    return StreamTuple(
        timestamp=float(i),
        values={"tag_id": f"O{i}", "group": group},
        uncertain={"weight": Gaussian(mean, 1.0)},
    )


class TestBuilderSurface:
    def test_chain_produces_expected_nodes(self):
        stream = (
            Stream.source("in", uncertain=("weight",))
            .where(lambda t: True, uses=("tag_id",))
            .where_probably("weight", ">", 10.0)
            .window(TumblingCountWindow(3))
            .aggregate("weight", strategy=CLTSum())
        )
        node = stream.node
        assert isinstance(node, AggregateNode)
        assert isinstance(node.input, ProbFilterNode)
        assert isinstance(node.input.input, FilterNode)
        assert isinstance(node.input.input.input, SourceNode)

    def test_handles_are_immutable(self):
        source = Stream.source("in", uncertain=("weight",))
        filtered = source.where(lambda t: True)
        assert source.node is not filtered.node
        assert filtered.node.input is source.node

    def test_aggregate_requires_window(self):
        with pytest.raises(PlanError, match="needs a window"):
            Stream.source("in").aggregate("weight")

    def test_having_requires_aggregate(self):
        with pytest.raises(PlanError, match="must directly follow aggregate"):
            Stream.source("in").having(10.0)

    def test_having_attaches_to_aggregate(self):
        stream = (
            Stream.source("in", uncertain=("weight",))
            .window(TumblingCountWindow(2))
            .aggregate("weight", strategy=CLTSum())
            .having(25.0, min_probability=0.8)
        )
        assert stream.node.having.threshold == 25.0
        assert stream.node.having.min_probability == 0.8

    def test_unknown_comparison_rejected(self):
        with pytest.raises(PlanError, match="unknown comparison"):
            Stream.source("in", uncertain=("v",)).where_probably("v", ">=", 1.0)

    def test_group_by_staged_for_aggregate(self):
        stream = (
            Stream.source("in", uncertain=("weight",))
            .window(TumblingCountWindow(2))
            .group_by(lambda t: t.value("group"))
            .aggregate("weight", strategy=CLTSum())
        )
        assert stream.node.key is not None

    def test_union_builds_union_node(self):
        a = Stream.source("a")
        b = Stream.source("b")
        assert isinstance(a.union(b).node, UnionNode)

    def test_join_builds_join_node(self):
        left = Stream.source("l")
        right = Stream.source("r")
        joined = left.join(right, on=lambda a, b: 1.0, window_length=5.0)
        assert isinstance(joined.node, JoinNode)


class TestSchemaChecking:
    def test_unknown_uncertain_attribute_rejected(self):
        stream = Stream.source("in", uncertain=("weight",)).where_probably(
            "height", ">", 1.0
        )
        with pytest.raises(PlanError, match="height"):
            stream.plan()

    def test_unknown_aggregate_attribute_rejected(self):
        stream = (
            Stream.source("in", values=("tag",), uncertain=("weight",))
            .window(TumblingCountWindow(2))
            .aggregate("mass", strategy=CLTSum())
        )
        with pytest.raises(PlanError, match="mass"):
            stream.plan()

    def test_derive_extends_schema(self):
        stream = (
            Stream.source("in", values=("tag",), uncertain=())
            .derive(uncertain={"weight": lambda t: Gaussian(1.0, 1.0)})
            .where_probably("weight", ">", 0.0)
        )
        stream.plan()  # does not raise

    def test_open_schema_skips_checks(self):
        Stream.source("in").where_probably("anything", ">", 1.0).plan()

    def test_summarize_checks_attribute(self):
        stream = (
            Stream.source("in", values=("tag",), uncertain=("weight",))
            .summarize("mass")
        )
        with pytest.raises(PlanError, match="mass"):
            stream.plan()

    def test_join_prefixes_schema(self):
        left = Stream.source("l", values=("a",), uncertain=("x",))
        right = Stream.source("r", values=("b",), uncertain=("temp",))
        joined = left.join(
            right, on=lambda a, b: 1.0, window_length=5.0,
            prefix_left="L_", prefix_right="R_",
        )
        schema = joined.node.output_schema()
        assert "L_a" in schema.values and "R_b" in schema.values
        assert "match_probability" in schema.values
        assert schema.uncertain == frozenset({"L_x", "R_temp"})

    def test_duplicate_source_names_rejected(self):
        a = Stream.source("in")
        b = Stream.source("in")  # distinct node, same name
        with pytest.raises(PlanError, match="two distinct sources"):
            a.union(b).plan()


class TestCompiledQuery:
    def test_simple_query_runs(self):
        query = (
            Stream.source("in", uncertain=("weight",))
            .window(TumblingCountWindow(3))
            .aggregate("weight", strategy=CLTSum())
            .compile()
        )
        query.push_many("in", [weight_tuple(i, 10.0) for i in range(6)])
        results = query.finish()
        assert len(results) == 2
        assert results[0].value("sum_weight_mean") == pytest.approx(30.0)

    def test_fanout_shared_prefix_lowers_once(self):
        source = Stream.source("in", values=("group",), uncertain=("weight",))
        shared = source.where(lambda t: True, description="shared")
        q_all = shared.window(TumblingCountWindow(2)).aggregate(
            "weight", strategy=CLTSum()
        )
        q_count = shared.window(TumblingCountWindow(2)).aggregate(
            "weight", function="count"
        )
        query = compile_streams({"sums": q_all, "counts": q_count})
        # The shared filter lowers to ONE physical box feeding both outputs.
        shared_filters = [box.op for box in query.host.boxes() if box.node is shared.node]
        assert len(shared_filters) == 1
        assert len(shared_filters[0].downstream) == 2

        query.push_many("in", [weight_tuple(i, 5.0) for i in range(4)])
        query.finish()
        assert len(query.output("sums")) == 2
        assert len(query.output("counts")) == 2
        assert query.output("counts")[0].value("count_weight") == 2
        with pytest.raises(PlanError, match="unknown output"):
            query.output("nope")

    def test_multiple_sources_via_join(self):
        query = (
            Stream.source("l", uncertain=("weight",))
            .join(
                Stream.source("r", uncertain=("weight",)),
                on=lambda a, b: 1.0,
                window_length=100.0,
                min_probability=0.5,
            )
            .compile()
        )
        assert set(query.sources) == {"l", "r"}
        query.push("r", weight_tuple(0, 10.0))
        query.push("l", weight_tuple(1, 10.0))
        results = query.finish()
        assert len(results) == 1
        assert results[0].value("match_probability") == 1.0

    def test_pipe_routes_through_custom_operator(self):
        box = PassThroughOperator(name="custom")
        query = Stream.source("in").pipe(box, description="noop").compile()
        query.push("in", weight_tuple(0, 1.0))
        assert len(query.finish()) == 1

    def test_statistics_exposed(self):
        query = (
            Stream.source("in", uncertain=("weight",))
            .window(TumblingCountWindow(2))
            .aggregate("weight", strategy=CLTSum())
            .compile()
        )
        query.push_many("in", [weight_tuple(i, 1.0) for i in range(4)])
        query.finish()
        assert any(s.tuples_in == 4 for s in query.statistics())

    def test_no_execution_mode_option(self):
        # One execution path: compile() takes a batch size, not a mode.
        stream = Stream.source("in")
        with pytest.raises(TypeError, match="mode"):
            stream.compile(mode="tuple")


class TestStagedStateSafety:
    """Regression: staged window()/group_by() must never be silently lost."""

    def test_staged_state_survives_row_wise_stages(self):
        query = (
            Stream.source("in", values=("group",), uncertain=("weight",))
            .window(TumblingCountWindow(4))
            .group_by(lambda t: t.value("group"))
            .where(lambda t: True, description="interposed")
            .aggregate("weight", strategy=CLTSum())
            .compile(batch_size=1)
        )
        query.push_many(
            "in", [weight_tuple(i, 10.0, group="A" if i % 2 else "B") for i in range(4)]
        )
        results = query.finish()
        # Grouped: one result per group per window, carrying "group".
        assert sorted(t.value("group") for t in results) == ["A", "B"]

    def test_structural_stage_refuses_to_drop_staged_window(self):
        staged = (
            Stream.source("in", uncertain=("weight",)).window(TumblingCountWindow(2))
        )
        with pytest.raises(PlanError, match="discard the staged window"):
            staged.summarize("weight")
        with pytest.raises(PlanError, match="discard the staged window"):
            staged.plan()
        with pytest.raises(PlanError, match="discard the staged window"):
            staged.join(Stream.source("r"), on=lambda a, b: 1.0, window_length=1.0)


class TestPipeReuseGuards:
    """Regression: stateful piped operators cannot be wired twice."""

    def test_second_compile_rejected(self):
        stream = Stream.source("in").pipe(PassThroughOperator(name="box"))
        stream.compile(batch_size=1)
        with pytest.raises(PlanError, match="can only be compiled once"):
            stream.compile(batch_size=1)

    def test_same_instance_piped_twice_rejected(self):
        box = PassThroughOperator(name="box")
        a = Stream.source("a").pipe(box)
        b = Stream.source("b").pipe(box)
        with pytest.raises(PlanError, match="piped into this plan twice"):
            compile_streams({"a": a, "b": b})
