"""Tests for the windowed uncertain aggregation operators."""

import pytest

from repro.core import (
    CFApproximationSum,
    CLTSum,
    GroupByAggregate,
    HavingClause,
    UncertainAggregate,
)
from repro.distributions import Gaussian
from repro.streams import StreamTuple, TumblingCountWindow, TumblingTimeWindow
from repro.streams.operators.base import OperatorError


def value_tuple(i, mean, sigma=1.0, group=None, ts=None):
    values = {"i": i}
    if group is not None:
        values["area"] = group
    return StreamTuple(
        timestamp=float(i if ts is None else ts),
        values=values,
        uncertain={"weight": Gaussian(mean, sigma)},
    )


class TestUncertainAggregate:
    def test_sum_over_tumbling_count_window(self, process_one):
        op = UncertainAggregate(TumblingCountWindow(4), "weight", CFApproximationSum())
        outputs = []
        for i in range(8):
            outputs.extend(process_one(op, value_tuple(i, mean=10.0)))
        assert len(outputs) == 2
        result = outputs[0].distribution("sum_weight")
        assert result.mean() == pytest.approx(40.0)
        assert result.variance() == pytest.approx(4.0)
        assert outputs[0].value("window_count") == 4

    def test_avg_scales_sum(self, process_one):
        op = UncertainAggregate(TumblingCountWindow(5), "weight", CLTSum(), function="avg")
        outputs = []
        for i in range(5):
            outputs.extend(process_one(op, value_tuple(i, mean=float(i))))
        result = outputs[0].distribution("avg_weight")
        assert result.mean() == pytest.approx(2.0)
        assert result.variance() == pytest.approx(5.0 / 25.0)

    def test_count_is_deterministic(self, process_one):
        op = UncertainAggregate(TumblingCountWindow(3), "weight", CLTSum(), function="count")
        outputs = []
        for i in range(3):
            outputs.extend(process_one(op, value_tuple(i, mean=1.0)))
        assert outputs[0].value("count_weight") == 3

    def test_max_uses_order_statistics(self, process_one):
        op = UncertainAggregate(TumblingCountWindow(2), "weight", CLTSum(), function="max")
        outputs = []
        outputs.extend(process_one(op, value_tuple(0, mean=0.0, sigma=1.0)))
        outputs.extend(process_one(op, value_tuple(1, mean=10.0, sigma=1.0)))
        result = outputs[0].distribution("max_weight")
        # Max of two well-separated Gaussians is essentially the larger one.
        assert result.mean() == pytest.approx(10.0, abs=0.2)

    def test_flush_emits_partial_window(self, process_one):
        op = UncertainAggregate(TumblingCountWindow(10), "weight", CLTSum())
        for i in range(3):
            assert process_one(op, value_tuple(i, mean=1.0)) == []
        outputs = list(op.flush())
        assert len(outputs) == 1
        assert outputs[0].value("window_count") == 3

    def test_having_filters_results(self, process_one):
        having = HavingClause(threshold=100.0, min_probability=0.5)
        op = UncertainAggregate(
            TumblingCountWindow(2), "weight", CLTSum(), having=having
        )
        low = [value_tuple(0, 10.0), value_tuple(1, 10.0)]
        high = [value_tuple(2, 80.0), value_tuple(3, 80.0)]
        outputs = []
        for item in low + high:
            outputs.extend(process_one(op, item))
        assert len(outputs) == 1
        assert outputs[0].value("having_probability") > 0.99

    def test_deterministic_numeric_attribute_promoted(self, process_one):
        op = UncertainAggregate(TumblingCountWindow(2), "const", CLTSum())
        items = [
            StreamTuple(timestamp=0.0, values={"const": 5.0}),
            StreamTuple(timestamp=1.0, values={"const": 7.0}),
        ]
        outputs = []
        for item in items:
            outputs.extend(process_one(op, item))
        assert outputs[0].distribution("sum_const").mean() == pytest.approx(12.0)

    def test_missing_attribute_raises(self, process_one):
        op = UncertainAggregate(TumblingCountWindow(1), "missing", CLTSum())
        with pytest.raises(OperatorError):
            process_one(op, value_tuple(0, mean=1.0))

    def test_correlated_window_rejected_by_default(self, process_one):
        op = UncertainAggregate(TumblingCountWindow(2), "weight", CLTSum())
        base = value_tuple(0, mean=1.0)
        sibling = base.derive(values={"i": 1})
        process_one(op, base)
        with pytest.raises(OperatorError):
            process_one(op, sibling)

    def test_correlated_window_allowed_when_check_disabled(self, process_one):
        op = UncertainAggregate(
            TumblingCountWindow(2), "weight", CLTSum(), check_independence=False
        )
        base = value_tuple(0, mean=1.0)
        process_one(op, base)
        outputs = process_one(op, base.derive(values={"i": 1}))
        assert len(outputs) == 1

    def test_invalid_function_rejected(self):
        with pytest.raises(OperatorError):
            UncertainAggregate(TumblingCountWindow(2), "weight", CLTSum(), function="median")

    def test_result_lineage_is_union_of_inputs(self, process_one):
        op = UncertainAggregate(TumblingCountWindow(2), "weight", CLTSum())
        a, b = value_tuple(0, 1.0), value_tuple(1, 2.0)
        process_one(op, a)
        outputs = process_one(op, b)
        assert outputs[0].lineage == a.lineage | b.lineage


class TestGroupByAggregate:
    def test_groups_within_time_window(self, process_one):
        op = GroupByAggregate(
            TumblingTimeWindow(5.0),
            key_function=lambda t: t.value("area"),
            attribute="weight",
            strategy=CLTSum(),
        )
        items = [
            value_tuple(0, 10.0, group="A", ts=0.5),
            value_tuple(1, 20.0, group="B", ts=1.0),
            value_tuple(2, 30.0, group="A", ts=2.0),
            value_tuple(3, 5.0, group="B", ts=6.0),  # next window
        ]
        outputs = []
        for item in items:
            outputs.extend(process_one(op, item))
        outputs.extend(op.flush())
        by_group = {(t.value("group"), t.value("window_start")): t for t in outputs}
        assert by_group[("A", 0.0)].distribution("sum_weight").mean() == pytest.approx(40.0)
        assert by_group[("B", 0.0)].distribution("sum_weight").mean() == pytest.approx(20.0)
        assert by_group[("B", 5.0)].distribution("sum_weight").mean() == pytest.approx(5.0)

    def test_having_applied_per_group(self, process_one):
        op = GroupByAggregate(
            TumblingCountWindow(4),
            key_function=lambda t: t.value("area"),
            attribute="weight",
            strategy=CLTSum(),
            having=HavingClause(threshold=50.0),
        )
        items = [
            value_tuple(0, 40.0, group="hot"),
            value_tuple(1, 40.0, group="hot"),
            value_tuple(2, 1.0, group="cold"),
            value_tuple(3, 1.0, group="cold"),
        ]
        outputs = []
        for item in items:
            outputs.extend(process_one(op, item))
        assert len(outputs) == 1
        assert outputs[0].value("group") == "hot"

    def test_having_probability_threshold(self):
        clause = HavingClause(threshold=0.0, min_probability=0.9)
        result = Gaussian(1.0, 1.0)  # P(>0) ~= 0.84 < 0.9
        assert not clause.accepts(result)
        assert clause.accepts(Gaussian(3.0, 1.0))

    def test_invalid_having_probability(self):
        with pytest.raises(ValueError):
            HavingClause(threshold=0.0, min_probability=1.5)
