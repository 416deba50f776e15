"""Tests for the planner cost model: strategy choice and batch sizing."""

import pytest

from repro.core import CFApproximationSum, CFInversionSum, CLTSum
from repro.plan import CostModel, Stream
from repro.streams import NowWindow, TumblingCountWindow, TumblingTimeWindow


class TestWindowSizing:
    def test_count_window_size_is_exact(self):
        model = CostModel()
        assert model.expected_window_size(TumblingCountWindow(37), None) == 37

    def test_now_window_is_one(self):
        assert CostModel().expected_window_size(NowWindow(), None) == 1

    def test_time_window_needs_rate_hint(self):
        model = CostModel()
        window = TumblingTimeWindow(5.0)
        assert model.expected_window_size(window, None) is None
        assert model.expected_window_size(window, 10.0) == 50


class TestStrategyChoice:
    def test_gaussian_family_picks_cf_approx(self):
        choice = CostModel().choose_sum_strategy(TumblingCountWindow(100), "gaussian")
        assert isinstance(choice.strategy, CFApproximationSum)
        assert "exact" in choice.reason

    def test_large_window_picks_clt(self):
        choice = CostModel().choose_sum_strategy(TumblingCountWindow(100), "gmm")
        assert isinstance(choice.strategy, CLTSum)

    def test_small_non_gaussian_window_picks_inversion(self):
        choice = CostModel().choose_sum_strategy(TumblingCountWindow(4), "gmm")
        assert isinstance(choice.strategy, CFInversionSum)

    def test_mid_window_picks_cf_approx(self):
        choice = CostModel().choose_sum_strategy(TumblingCountWindow(20), "gmm")
        assert isinstance(choice.strategy, CFApproximationSum)

    def test_unknown_size_defaults_to_cf_approx(self):
        choice = CostModel().choose_sum_strategy(TumblingTimeWindow(5.0), None)
        assert isinstance(choice.strategy, CFApproximationSum)

    def test_thresholds_are_tunable(self):
        model = CostModel(clt_window_threshold=10)
        choice = model.choose_sum_strategy(TumblingCountWindow(12), "gmm")
        assert isinstance(choice.strategy, CLTSum)

    def test_explicit_strategy_wins_over_cost_model(self):
        query = (
            Stream.source("in", uncertain=("v",), family="gaussian")
            .window(TumblingCountWindow(100))
            .aggregate("v", strategy=CLTSum())
            .compile()
        )
        assert query.strategy_decisions == []


class TestExecutionChoice:
    def test_default_batch_size(self):
        choice = CostModel().choose_execution()
        assert choice.batch_size == 256
        assert choice.reason == "default"

    def test_batch_size_stretches_to_window(self):
        choice = CostModel().choose_execution(window_sizes=[1000])
        assert choice.batch_size == 1000
        assert "1000 rows" in choice.reason

    def test_compile_batch_size_pins_override_cost_model(self):
        stream = (
            Stream.source("in", uncertain=("v",))
            .window(TumblingCountWindow(4))
            .aggregate("v", strategy=CLTSum())
        )
        assert stream.compile().execution.batch_size == 256
        assert stream.compile().engine.batch_size == 256
        pinned = stream.compile(batch_size=17)
        assert pinned.execution.batch_size == 17
        assert pinned.engine.batch_size == 17


class TestValidation:
    def test_bad_thresholds_rejected(self):
        with pytest.raises(ValueError):
            CostModel(clt_window_threshold=1)
        with pytest.raises(ValueError):
            CostModel(default_batch_size=0)
