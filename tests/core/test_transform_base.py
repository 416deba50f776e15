"""Tests for the T-operator base class and compression policies."""

import numpy as np
import pytest

from repro.core import CompressionPolicy, TransformOperator
from repro.core.transform import marginal_gaussians
from repro.distributions import Gaussian, GaussianMixture, ParticleDistribution, fit_gaussian
from repro.streams import StreamTuple


class DoublingTransform(TransformOperator):
    """Toy T operator: raw value -> tuple with a Gaussian around 2x the value."""

    def transform(self, observation, timestamp):
        yield StreamTuple(
            timestamp=timestamp,
            values={"raw": observation},
            uncertain={"value": Gaussian(2.0 * observation, 1.0)},
        )


class TestCompressionPolicy:
    def test_gaussian_mode(self, rng):
        particles = ParticleDistribution(rng.normal(5.0, 1.0, size=300))
        policy = CompressionPolicy(mode="gaussian")
        out = policy.compress(particles)
        assert isinstance(out, Gaussian)
        assert out.mu == pytest.approx(particles.mean())

    def test_particles_mode_passthrough(self, rng):
        particles = ParticleDistribution(rng.normal(size=50))
        assert CompressionPolicy(mode="particles").compress(particles) is particles

    def test_mixture_mode_on_bimodal_cloud(self, rng):
        values = np.concatenate([rng.normal(0, 0.3, 200), rng.normal(10, 0.3, 200)])
        particles = ParticleDistribution(values)
        out = CompressionPolicy(mode="mixture", max_components=3).compress(particles, rng=rng)
        assert isinstance(out, (Gaussian, GaussianMixture))
        assert out.mean() == pytest.approx(particles.mean(), abs=0.3)

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            CompressionPolicy(mode="wavelet")
        with pytest.raises(ValueError):
            CompressionPolicy(max_components=0)
        with pytest.raises(ValueError):
            CompressionPolicy(criterion="xic")


def ragged_pool(rng, sizes=(25, 60, 25, 25, 60, 60, 25)):
    """Back-to-back 2-d clouds of the sizes a compressing filter leaves behind."""
    points = np.concatenate(
        [rng.normal(rng.uniform(-50, 50, 2), rng.uniform(0.05, 5.0, 2), (n, 2)) for n in sizes]
    )
    weights = rng.uniform(0.0, 3.0, points.shape[0])
    return points, weights, list(sizes)


class TestMarginalGaussians:
    def test_moments_give_the_per_cloud_fit(self, rng):
        points, weights, sizes = ragged_pool(rng)
        clouds = np.split(np.arange(points.shape[0]), np.cumsum(sizes)[:-1])
        means, variances = [], []
        for rows in clouds:
            w = weights[rows] / weights[rows].sum()
            means.append(w @ points[rows])
            variances.append(w @ (points[rows] - means[-1]) ** 2)
        got = marginal_gaussians(np.array(means), np.array(variances))
        assert len(got) == len(sizes)
        for fits, rows in zip(got, clouds):
            for axis, g in enumerate(fits):
                want = fit_gaussian(points[rows, axis], weights[rows])
                assert g.mu == pytest.approx(want.mu, rel=1e-12, abs=1e-12)
                assert g.sigma == pytest.approx(want.sigma, rel=1e-12)

    def test_floors_sigma_of_a_collapsed_cloud(self):
        means = np.array([[3.0, 3.0], [1.0, 2.0]])
        fits = marginal_gaussians(means, np.array([[0.0, 0.0], [4.0, 9.0]]))
        assert [g.sigma for g in fits[0]] == [1e-9, 1e-9]
        assert [g.sigma for g in fits[1]] == [2.0, 3.0]

    def test_no_clouds(self):
        assert marginal_gaussians(np.empty((0, 2)), np.empty((0, 2))) == []


class TestTransformOperator:
    def test_ingest_produces_tuples_with_distributions(self):
        op = DoublingTransform()
        outputs = list(op.ingest(3.0, timestamp=1.5))
        assert len(outputs) == 1
        assert outputs[0].timestamp == 1.5
        assert outputs[0].distribution("value").mu == pytest.approx(6.0)
        assert op.tuples_out == 1

    def test_process_unwraps_raw_attribute(self):
        op = DoublingTransform()
        wrapped = StreamTuple(timestamp=2.0, values={"raw": 5.0})
        outputs = op.accept(wrapped)
        assert outputs[0].distribution("value").mu == pytest.approx(10.0)
