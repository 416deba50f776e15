"""Tests for the probabilistic sliding-window join (query Q2 style)."""

import pytest

from repro.core import (
    ProbabilisticJoin,
    location_equality_probability,
    match_probability_band,
)
from repro.distributions import Gaussian, MultivariateGaussian, Uniform
from repro.streams import StreamTuple
from repro.streams.operators.base import OperatorError


def located_tuple(ts, x, y, sigma=0.5, **values):
    return StreamTuple(
        timestamp=ts,
        values=values,
        uncertain={"x": Gaussian(x, sigma), "y": Gaussian(y, sigma)},
    )


class TestMatchProbabilities:
    def test_identical_gaussians_match_with_high_probability(self):
        a = Gaussian(0.0, 0.1)
        assert match_probability_band(a, Gaussian(0.0, 0.1), tolerance=1.0) > 0.99

    def test_distant_gaussians_do_not_match(self):
        assert match_probability_band(Gaussian(0.0, 0.5), Gaussian(50.0, 0.5), 1.0) < 1e-6

    def test_tolerance_grows_probability(self):
        a, b = Gaussian(0.0, 1.0), Gaussian(2.0, 1.0)
        assert match_probability_band(a, b, 0.5) < match_probability_band(a, b, 3.0)

    def test_monte_carlo_fallback_close_to_gaussian_closed_form(self, rng):
        a, b = Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)
        exact = match_probability_band(a, b, 1.0)
        approx = match_probability_band(Uniform(-3, 3), b, 1.0, n_samples=20_000, rng=rng)
        # Not the same distributions, just check the fallback returns a sane probability.
        assert 0.0 <= approx <= 1.0
        assert exact == pytest.approx(0.5, abs=0.2)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            match_probability_band(Gaussian(0, 1), Gaussian(0, 1), -0.1)

    def test_multivariate_location_equality(self):
        a = MultivariateGaussian([0.0, 0.0], [[0.01, 0.0], [0.0, 0.01]])
        b = MultivariateGaussian([0.1, 0.1], [[0.01, 0.0], [0.0, 0.01]])
        far = MultivariateGaussian([30.0, 30.0], [[0.01, 0.0], [0.0, 0.01]])
        assert location_equality_probability(a, b, tolerance=1.0) > 0.95
        assert location_equality_probability(a, far, tolerance=1.0) < 1e-6


def location_match(left, right, tolerance=2.0):
    px = match_probability_band(left.distribution("x"), right.distribution("x"), tolerance)
    py = match_probability_band(left.distribution("y"), right.distribution("y"), tolerance)
    return px * py


class TestProbabilisticJoin:
    def make_join(self, min_probability=0.3, window_length=3.0):
        return ProbabilisticJoin(
            window_length=window_length,
            match_probability=location_match,
            min_probability=min_probability,
        )

    def test_matching_pair_is_emitted_with_probability(self, process_one):
        join = self.make_join()
        left_port, right_port = join.left_port(), join.right_port()
        process_one(right_port, located_tuple(0.0, 10.0, 10.0, sensor="T1"))
        outputs = process_one(left_port, located_tuple(0.5, 10.2, 9.9, tag_id="O1"))
        assert len(outputs) == 1
        out = outputs[0]
        assert out.value("match_probability") > 0.5
        assert out.value("left_tag_id") == "O1"
        assert out.value("right_sensor") == "T1"

    def test_non_matching_pair_suppressed(self, process_one):
        join = self.make_join()
        process_one(join.right_port(), located_tuple(0.0, 50.0, 50.0))
        assert process_one(join.left_port(), located_tuple(0.1, 0.0, 0.0)) == []

    def test_window_expiry(self, process_one):
        join = self.make_join(window_length=1.0)
        process_one(join.right_port(), located_tuple(0.0, 0.0, 0.0))
        # Too late: the right tuple is outside the 1 s window.
        assert process_one(join.left_port(), located_tuple(5.0, 0.0, 0.0)) == []
        # The stale right tuple has been expired from its window.
        assert join.window_sizes() == (1, 0)

    def test_symmetric_matching_from_either_side(self, process_one):
        join = self.make_join()
        process_one(join.left_port(), located_tuple(0.0, 1.0, 1.0, tag_id="O1"))
        outputs = process_one(join.right_port(), located_tuple(0.2, 1.0, 1.0, sensor="T9"))
        assert len(outputs) == 1
        assert outputs[0].value("left_tag_id") == "O1"

    def test_one_to_many_matches(self, process_one):
        join = self.make_join()
        for i in range(3):
            process_one(join.right_port(), located_tuple(0.1 * i, 0.0, 0.0, sensor=f"T{i}"))
        outputs = process_one(join.left_port(), located_tuple(0.5, 0.0, 0.0, tag_id="O1"))
        assert len(outputs) == 3

    def test_lineage_union_in_outputs(self, process_one):
        join = self.make_join()
        right = located_tuple(0.0, 0.0, 0.0, sensor="T1")
        left = located_tuple(0.1, 0.0, 0.0, tag_id="O1")
        process_one(join.right_port(), right)
        out = process_one(join.left_port(), left)[0]
        assert right.lineage <= out.lineage
        assert left.lineage <= out.lineage

    def test_ports_cannot_be_connected_downstream(self):
        join = self.make_join()
        with pytest.raises(OperatorError):
            join.left_port().connect(join)

    def test_invalid_parameters(self):
        with pytest.raises(OperatorError):
            ProbabilisticJoin(window_length=0.0, match_probability=location_match)
        with pytest.raises(OperatorError):
            ProbabilisticJoin(
                window_length=1.0, match_probability=location_match, min_probability=2.0
            )
