"""Per-rule equivalence tests: optimized and naive plans agree to 1e-9.

Every rewrite rule gets (a) a structural test that it fires on its
target pattern, (b) an equivalence test running the same synthetic
GMM/Gaussian stream through the naive (``optimize=False``) and
optimized plan with one-row batches AND the planner's batch size, comparing results within
``TOLERANCE``, and (c) a guard test that it does *not* fire when its
side conditions fail (shared nodes, annotations, missing ``uses``).
"""

import numpy as np
import pytest

from repro.distributions import Gaussian
from repro.plan import (
    AggregateNode,
    DeriveNode,
    FilterNode,
    JoinNode,
    ProbFilterNode,
    Stream,
    compile_streams,
)
from repro.streams import StreamTuple, TumblingCountWindow
from repro.workloads import gmm_tuple_stream

TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run(stream, sources, batch_size, optimize):
    """Compile ``stream`` and run the named source feeds through it."""
    query = stream.compile(batch_size=batch_size, optimize=optimize)
    for name, items in sources.items():
        query.push_many(name, items)
    return query.finish()


def assert_equivalent(left, right):
    """Structural tuple-by-tuple comparison within TOLERANCE."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.timestamp == pytest.approx(b.timestamp, abs=TOLERANCE)
        assert set(a.values) == set(b.values)
        for key, value in a.values.items():
            other = b.values[key]
            if isinstance(value, float):
                assert value == pytest.approx(other, abs=TOLERANCE), key
            else:
                assert value == other, key
        assert set(a.uncertain) == set(b.uncertain)
        for key in a.uncertain:
            da, db = a.distribution(key), b.distribution(key)
            assert float(da.mean()) == pytest.approx(float(db.mean()), abs=TOLERANCE)
            assert float(da.variance()) == pytest.approx(
                float(db.variance()), abs=TOLERANCE
            )


def assert_rule_equivalence(build, sources):
    """Naive vs optimized results agree with one-row AND planner-sized batches."""
    naive_tuple = run(build(), sources, 1, optimize=False)
    assert naive_tuple, "test workload produced no results; the test is vacuous"
    for batch_size in (1, None):
        assert_equivalent(naive_tuple, run(build(), sources, batch_size, optimize=True))
    assert_equivalent(naive_tuple, run(build(), sources, None, optimize=False))


def applied_rules(stream):
    query = stream.compile(batch_size=1)
    return {trace.rule for trace in query.rewrites}


def gaussian_group_stream(n, rng_seed=5):
    rng = np.random.default_rng(rng_seed)
    return [
        StreamTuple(
            timestamp=float(i) * 0.25,
            values={"tag_id": f"O{i}", "kind": "hot" if i % 3 else "cold"},
            uncertain={"weight": Gaussian(float(rng.uniform(5.0, 50.0)), 2.0)},
        )
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# push_filter_below_derive
# ----------------------------------------------------------------------
class TestPushFilterBelowDerive:
    def build(self):
        return (
            Stream.source("in", values=("tag_id", "kind"), uncertain=("weight",))
            .derive(values={"double": lambda t: t.value("tag_id") * 2})
            .where(lambda t: t.value("kind") == "hot", uses=("kind",))
            .window(TumblingCountWindow(8))
            .aggregate("weight")
        )

    def test_fires_and_reorders(self):
        assert "push_filter_below_derive" in applied_rules(self.build())
        optimized = self.build().compile(batch_size=1).optimized_plan
        agg = optimized.outputs[0]
        assert isinstance(agg, AggregateNode)
        derive = agg.input
        assert isinstance(derive, DeriveNode)
        assert isinstance(derive.input, FilterNode)

    def test_equivalence(self):
        assert_rule_equivalence(self.build, {"in": gaussian_group_stream(64)})

    def test_skipped_without_uses(self):
        stream = (
            Stream.source("in", values=("kind",), uncertain=("weight",))
            .derive(values={"d": lambda t: 1})
            .where(lambda t: t.value("kind") == "hot")  # no uses declared
        )
        assert "push_filter_below_derive" not in applied_rules(stream)

    def test_skipped_when_filter_reads_derived_attribute(self):
        stream = (
            Stream.source("in", values=("kind",), uncertain=("weight",))
            .derive(values={"d": lambda t: 1})
            .where(lambda t: t.value("d") == 1, uses=("d",))
        )
        assert "push_filter_below_derive" not in applied_rules(stream)

    def test_skipped_when_derive_is_shared(self):
        derived = (
            Stream.source("in", values=("kind",), uncertain=("weight",))
            .derive(values={"d": lambda t: 1})
        )
        filtered = derived.where(lambda t: t.value("kind") == "hot", uses=("kind",))
        other = derived.where(lambda t: True, description="other consumer")
        query = compile_streams({"a": filtered, "b": other}, batch_size=1)
        assert "push_filter_below_derive" not in {t.rule for t in query.rewrites}


# ----------------------------------------------------------------------
# push_filter_below_join
# ----------------------------------------------------------------------
def location_match(left, right):
    da, db = left.distribution("x"), right.distribution("x")
    diff = Gaussian(da.mu - db.mu, float(np.hypot(da.sigma, db.sigma)))
    return diff.prob_in_interval(-2.0, 2.0)


def xy_stream(n, base, rng_seed):
    rng = np.random.default_rng(rng_seed)
    return [
        StreamTuple(
            timestamp=float(i) * 0.5,
            values={"id": f"{base}{i}"},
            uncertain={
                "x": Gaussian(float(rng.uniform(0.0, 20.0)), 1.0),
                "temp": Gaussian(float(rng.uniform(40.0, 90.0)), 4.0),
            },
        )
        for i in range(n)
    ]


class TestPushFilterBelowJoin:
    def build(self):
        left = Stream.source("l", values=("id",), uncertain=("x", "temp"))
        right = Stream.source("r", values=("id",), uncertain=("x", "temp"))
        return (
            left.join(
                right,
                on=location_match,
                window_length=1e6,
                min_probability=0.1,
                prefix_left="L_",
                prefix_right="R_",
            )
            .where_probably("R_temp", ">", 60.0, min_probability=0.5, annotate=None)
        )

    def sources(self):
        return {"l": xy_stream(20, "l", 11), "r": xy_stream(20, "r", 12)}

    def test_fires_and_pushes_to_right_input(self):
        stream = self.build()
        assert "push_filter_below_join" in applied_rules(stream)
        optimized = stream.compile(batch_size=1).optimized_plan
        join = optimized.outputs[0]
        assert isinstance(join, JoinNode)
        pushed = join.right
        assert isinstance(pushed, ProbFilterNode)
        assert pushed.attribute == "temp"

    def test_equivalence(self):
        assert_rule_equivalence(self.build, self.sources())

    def test_skipped_when_annotating(self):
        left = Stream.source("l", uncertain=("x", "temp"))
        right = Stream.source("r", uncertain=("x", "temp"))
        stream = left.join(
            right, on=location_match, window_length=10.0, prefix_right="R_"
        ).where_probably("R_temp", ">", 60.0)  # annotate defaults on
        assert "push_filter_below_join" not in applied_rules(stream)


# ----------------------------------------------------------------------
# fuse_adjacent_filters
# ----------------------------------------------------------------------
class TestFuseAdjacentFilters:
    def build(self):
        return (
            Stream.source("in", values=("tag_id", "kind"), uncertain=("weight",))
            .where(lambda t: t.value("kind") == "hot", uses=("kind",), description="hot")
            .where(lambda t: int(t.value("tag_id")[1:]) % 2 == 0,
                   uses=("tag_id",), description="even")
            .window(TumblingCountWindow(4))
            .aggregate("weight")
        )

    def test_fires_and_merges_boxes(self):
        stream = self.build()
        assert "fuse_adjacent_filters" in applied_rules(stream)
        query = stream.compile(batch_size=1)
        filters = [box for box in query.host.boxes() if isinstance(box.node, FilterNode)]
        assert len(filters) == 1

    def test_equivalence(self):
        assert_rule_equivalence(self.build, {"in": gaussian_group_stream(64)})


# ----------------------------------------------------------------------
# reorder_cheap_filter_first
# ----------------------------------------------------------------------
class TestReorderCheapFilterFirst:
    def build(self):
        return (
            Stream.source("in", values=("tag_id", "kind"), uncertain=("weight",))
            .where_probably("weight", ">", 20.0)
            .where(lambda t: t.value("kind") == "hot", uses=("kind",))
            .window(TumblingCountWindow(4))
            .aggregate("weight")
        )

    def test_fires_and_reorders(self):
        stream = self.build()
        assert "reorder_cheap_filter_first" in applied_rules(stream)
        optimized = stream.compile(batch_size=1).optimized_plan
        # After the reorder the deterministic filter feeds the
        # probabilistic one, which feeds the aggregate.
        root = optimized.outputs[0]
        assert isinstance(root, AggregateNode)
        assert isinstance(root.input, ProbFilterNode)
        assert isinstance(root.input.input, FilterNode)

    def test_equivalence(self):
        assert_rule_equivalence(self.build, {"in": gaussian_group_stream(64)})

    def test_skipped_when_filter_reads_annotation(self):
        stream = (
            Stream.source("in", values=("kind",), uncertain=("weight",))
            .where_probably("weight", ">", 20.0, annotate="p")
            .where(lambda t: t.value("p") > 0.9, uses=("p",))
        )
        assert "reorder_cheap_filter_first" not in applied_rules(stream)


# ----------------------------------------------------------------------
# drop_unread_annotation
# ----------------------------------------------------------------------
class TestDropUnreadAnnotation:
    def build(self, function="sum"):
        return (
            Stream.source("in", uncertain=("value",), family="gmm")
            .where_probably("value", ">", 30.0)
            .window(TumblingCountWindow(10))
            .aggregate("value", function=function)
        )

    def test_fires_and_keeps_two_boxes(self):
        stream = self.build()
        assert "drop_unread_annotation" in applied_rules(stream)
        query = stream.compile(batch_size=1)
        root = query.optimized_plan.outputs[0]
        assert isinstance(root, AggregateNode)
        assert isinstance(root.input, ProbFilterNode)
        assert root.input.annotate is None
        # Lowered as the two ordinary boxes: a selection without
        # annotation feeding the aggregate.
        boxes = query.host.boxes()
        (select,) = [box.op for box in boxes if isinstance(box.node, ProbFilterNode)]
        assert select.probability_attribute is None
        assert select.downstream and all(
            isinstance(box.node, AggregateNode)
            for box in boxes
            if box.op in select.downstream
        )

    @pytest.mark.parametrize("function", ["sum", "avg", "count", "max"])
    def test_equivalence_on_gmm_stream(self, function):
        sources = {"in": gmm_tuple_stream(120, mean_range=(0.0, 100.0), rng=7)}
        assert_rule_equivalence(lambda: self.build(function), sources)

    def test_skipped_when_select_is_shared(self):
        selected = (
            Stream.source("in", uncertain=("value",))
            .where_probably("value", ">", 30.0)
        )
        agg = selected.window(TumblingCountWindow(10)).aggregate("value")
        query = compile_streams({"agg": agg, "raw": selected}, batch_size=1)
        assert "drop_unread_annotation" not in {t.rule for t in query.rewrites}
        # ... and the shared select's annotated output stays observable.
        query.push_many("in", gmm_tuple_stream(20, mean_range=(0.0, 100.0), rng=3))
        query.finish()
        raw = query.output("raw")
        assert raw and all(t.has_value("selection_probability") for t in raw)


# ----------------------------------------------------------------------
# Whole-plan composition: several rules at once stay equivalent
# ----------------------------------------------------------------------
class TestComposedRewrites:
    def build(self):
        return (
            Stream.source("in", values=("tag_id", "kind"), uncertain=("weight",))
            .derive(values={"label": lambda t: t.value("tag_id").lower()})
            .where(lambda t: t.value("kind") == "hot", uses=("kind",))
            .where(lambda t: len(t.value("tag_id")) > 1, uses=("tag_id",))
            .where_probably("weight", ">", 10.0, annotate=None)
            .window(TumblingCountWindow(6))
            .group_by(lambda t: t.value("kind"))
            .aggregate("weight")
            .having(50.0, min_probability=0.2)
        )

    def test_multiple_rules_fire(self):
        rules = applied_rules(self.build())
        assert {"push_filter_below_derive", "fuse_adjacent_filters"} <= rules

    def test_equivalence(self):
        assert_rule_equivalence(self.build, {"in": gaussian_group_stream(96)})


class TestAnnotationSafety:
    """Regression: the rule must not drop an annotation the aggregate reads."""

    def test_skipped_when_group_key_could_read_annotation(self):
        stream = (
            Stream.source("in", uncertain=("value",))
            .where_probably("value", ">", 20.0)  # annotate defaults on
            .window(TumblingCountWindow(4))
            .group_by(lambda t: t.value("selection_probability") > 0.9)
            .aggregate("value")
        )
        assert "drop_unread_annotation" not in applied_rules(stream)
        # ... and the plan actually runs: the key reads the annotation.
        query = stream.compile(batch_size=1)
        query.push_many("in", gmm_tuple_stream(8, mean_range=(50.0, 100.0), rng=2))
        assert query.finish()

    def test_skipped_when_aggregating_the_annotation(self):
        stream = (
            Stream.source("in", uncertain=("value",))
            .where_probably("value", ">", 20.0, annotate="p")
            .window(TumblingCountWindow(4))
            .aggregate("p")
        )
        assert "drop_unread_annotation" not in applied_rules(stream)
        query = stream.compile(batch_size=1)
        query.push_many("in", gmm_tuple_stream(8, mean_range=(50.0, 100.0), rng=2))
        assert query.finish()

    def test_nothing_to_drop_without_annotation(self):
        stream = (
            Stream.source("in", values=("k",), uncertain=("value",))
            .where_probably("value", ">", 20.0, annotate=None)
            .window(TumblingCountWindow(4))
            .group_by(lambda t: t.value("k"))
            .aggregate("value")
        )
        assert "drop_unread_annotation" not in applied_rules(stream)
