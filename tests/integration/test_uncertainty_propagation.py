"""Cross-module test: uncertainty propagated through a full operator pipeline
matches a Monte-Carlo simulation of the same pipeline."""

import numpy as np
import pytest

from repro.core import (
    CFApproximationSum,
    Comparison,
    ProbabilisticSelect,
    SummarizeResults,
    UncertainAggregate,
    UncertainPredicate,
)
from repro.distributions import Gaussian, as_rng
from repro.streams import CollectSink, StreamEngine, StreamTuple, TumblingCountWindow


def build_pipeline(window=25):
    select = ProbabilisticSelect(
        UncertainPredicate("value", Comparison.GREATER, -1e9),
        min_probability=0.0,
    )
    aggregate = UncertainAggregate(
        TumblingCountWindow(window), "value", CFApproximationSum(), function="sum"
    )
    summarize = SummarizeResults("sum_value", confidence=0.9)
    sink = CollectSink()
    engine = StreamEngine()
    engine.add_source("in", select)
    select.connect(aggregate)
    aggregate.connect(summarize)
    summarize.connect(sink)
    return engine, sink


class TestUncertaintyPropagation:
    def test_pipeline_sum_matches_monte_carlo(self):
        rng = as_rng(7)
        window = 25
        means = rng.uniform(0, 10, size=window)
        sigmas = rng.uniform(0.5, 2.0, size=window)
        tuples = [
            StreamTuple(timestamp=float(i), values={}, uncertain={"value": Gaussian(m, s)})
            for i, (m, s) in enumerate(zip(means, sigmas))
        ]
        engine, sink = build_pipeline(window)
        for t in tuples:
            engine.push("in", t)
        engine.finish()
        assert len(sink.results) == 1
        result = sink.results[0]

        # Monte-Carlo the same pipeline: draw each value and add them up.
        draws = rng.normal(means, sigmas, size=(20_000, window)).sum(axis=1)
        assert result.value("sum_value_mean") == pytest.approx(draws.mean(), rel=0.01)
        assert result.value("sum_value_variance") == pytest.approx(draws.var(), rel=0.05)
        lo, hi = result.value("sum_value_lo"), result.value("sum_value_hi")
        coverage = np.mean((draws >= lo) & (draws <= hi))
        assert coverage == pytest.approx(0.9, abs=0.02)

    def test_selection_probability_scales_with_threshold(self, process_one):
        select_strict = ProbabilisticSelect(
            UncertainPredicate("value", Comparison.GREATER, 5.0), min_probability=0.9
        )
        select_lenient = ProbabilisticSelect(
            UncertainPredicate("value", Comparison.GREATER, 5.0), min_probability=0.1
        )
        borderline = StreamTuple(
            timestamp=0.0, values={}, uncertain={"value": Gaussian(5.5, 1.0)}
        )
        assert process_one(select_lenient, borderline) != []
        assert process_one(select_strict, borderline) == []

    def test_window_count_preserved_through_pipeline(self):
        engine, sink = build_pipeline(window=10)
        for i in range(30):
            engine.push(
                "in",
                StreamTuple(timestamp=float(i), values={}, uncertain={"value": Gaussian(1.0, 0.1)}),
            )
        engine.finish()
        assert len(sink.results) == 3
        assert all(r.value("window_count") == 10 for r in sink.results)
