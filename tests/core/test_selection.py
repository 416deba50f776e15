"""Tests for probabilistic selection (Section 5, selection operator)."""

import pytest

from repro.core import Comparison, ProbabilisticSelect, UncertainPredicate
from repro.distributions import Gaussian
from repro.streams import StreamTuple
from repro.streams.operators.base import OperatorError


def temp_tuple(mean, sigma=2.0):
    return StreamTuple(timestamp=0.0, values={"sensor": "T"}, uncertain={"temp": Gaussian(mean, sigma)})


class TestUncertainPredicate:
    def test_greater_probability(self):
        pred = UncertainPredicate("temp", Comparison.GREATER, 60.0)
        assert pred.probability(temp_tuple(60.0)) == pytest.approx(0.5)
        assert pred.probability(temp_tuple(80.0)) > 0.99
        assert pred.probability(temp_tuple(40.0)) < 0.01

    def test_less_probability(self):
        pred = UncertainPredicate("temp", Comparison.LESS, 0.0)
        assert pred.probability(temp_tuple(0.0)) == pytest.approx(0.5)

    def test_between_probability(self):
        pred = UncertainPredicate("temp", Comparison.BETWEEN, -1.0, upper=1.0)
        assert pred.probability(temp_tuple(0.0, sigma=1.0)) == pytest.approx(0.6827, abs=1e-3)

    def test_between_requires_upper(self):
        with pytest.raises(ValueError):
            UncertainPredicate("temp", Comparison.BETWEEN, 0.0)

    def test_missing_attribute_raises(self):
        pred = UncertainPredicate("humidity", Comparison.GREATER, 0.5)
        with pytest.raises(OperatorError):
            pred.probability(temp_tuple(10.0))


class TestProbabilisticSelect:
    def test_keeps_tuples_above_threshold(self, process_one):
        select = ProbabilisticSelect(
            UncertainPredicate("temp", Comparison.GREATER, 60.0), min_probability=0.5
        )
        assert process_one(select, temp_tuple(70.0)) != []
        assert process_one(select, temp_tuple(50.0)) == []

    def test_annotates_probability(self, process_one):
        select = ProbabilisticSelect(
            UncertainPredicate("temp", Comparison.GREATER, 60.0), min_probability=0.0
        )
        out = process_one(select, temp_tuple(62.0))[0]
        prob = out.value("selection_probability")
        assert 0.5 < prob < 1.0

    def test_annotation_can_be_disabled(self, process_one):
        select = ProbabilisticSelect(
            UncertainPredicate("temp", Comparison.GREATER, 60.0),
            min_probability=0.0,
            probability_attribute=None,
        )
        out = process_one(select, temp_tuple(80.0))[0]
        assert not out.has_value("selection_probability")

    def test_zero_threshold_keeps_everything(self, process_one):
        select = ProbabilisticSelect(
            UncertainPredicate("temp", Comparison.GREATER, 1000.0), min_probability=0.0
        )
        assert process_one(select, temp_tuple(0.0)) != []

    def test_invalid_threshold(self):
        with pytest.raises(OperatorError):
            ProbabilisticSelect(
                UncertainPredicate("temp", Comparison.GREATER, 0.0), min_probability=1.5
            )
