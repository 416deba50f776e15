"""Tests for final-result summarisation (confidence regions, error bounds)."""

import pytest

from repro.core import SummarizeResults, summarize
from repro.distributions import Gaussian
from repro.streams import StreamTuple
from repro.streams.operators.base import OperatorError


class TestSummarize:
    def test_gaussian_summary(self):
        summary = summarize(Gaussian(10.0, 2.0), confidence=0.95)
        assert summary.mean == pytest.approx(10.0)
        assert summary.variance == pytest.approx(4.0)
        assert summary.region[0] == pytest.approx(10.0 - 1.96 * 2.0, abs=0.02)
        assert summary.region[1] == pytest.approx(10.0 + 1.96 * 2.0, abs=0.02)
        assert summary.error_bound == pytest.approx(1.96 * 2.0, abs=0.02)
        assert summary.contains(10.0)
        assert not summary.contains(20.0)

    def test_std_property(self):
        assert summarize(Gaussian(0.0, 3.0)).std == pytest.approx(3.0)


class TestSummarizeResultsOperator:
    def make_tuple(self):
        return StreamTuple(
            timestamp=1.0,
            values={"area": (3, 4)},
            uncertain={"total_weight": Gaussian(250.0, 10.0)},
        )

    def test_replaces_distribution_with_statistics(self, process_one):
        op = SummarizeResults("total_weight", confidence=0.9)
        out = process_one(op, self.make_tuple())[0]
        assert out.value("total_weight_mean") == pytest.approx(250.0)
        assert out.value("total_weight_variance") == pytest.approx(100.0)
        assert out.value("total_weight_lo") < 250.0 < out.value("total_weight_hi")
        assert not out.has_uncertain("total_weight")
        assert out.value("area") == (3, 4)

    def test_can_keep_distribution(self, process_one):
        op = SummarizeResults("total_weight", keep_distribution=True)
        out = process_one(op, self.make_tuple())[0]
        assert out.has_uncertain("total_weight")

    def test_missing_attribute_raises(self, process_one):
        op = SummarizeResults("nope")
        with pytest.raises(OperatorError):
            process_one(op, self.make_tuple())

    def test_invalid_confidence(self):
        with pytest.raises(OperatorError):
            SummarizeResults("x", confidence=1.0)
