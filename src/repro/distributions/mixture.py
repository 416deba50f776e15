"""Gaussian mixture distributions with EM fitting and AIC/BIC selection.

Section 4.3 of the paper uses Gaussian mixtures as the "more flexible"
parametric family for compressing sample-based (particle) tuple-level
distributions, e.g. when an object has just moved and its particle
cloud is spread over two locations.  The number of mixture components
is chosen with standard model-selection criteria (AIC / BIC).

Section 5.1 fits Gaussian mixtures to characteristic functions to
approximate the result distribution of a SUM over a window of tuples.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np
from scipy.special import erf

from .base import (
    DistributionError,
    ScalarDistribution,
    as_rng,
    normalize_weights,
)
from .gaussian import Gaussian

__all__ = ["GaussianMixture", "fit_gmm_em", "select_components"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class GaussianMixture(ScalarDistribution):
    """A finite mixture of one-dimensional Gaussians.

    Parameters
    ----------
    weights:
        Mixing proportions; normalised to sum to one.
    means:
        Component means.
    sigmas:
        Component standard deviations (all strictly positive).
    """

    __slots__ = ("weights", "means", "sigmas")

    def __init__(
        self,
        weights: Sequence[float],
        means: Sequence[float],
        sigmas: Sequence[float],
    ):
        weights_arr = normalize_weights(weights)
        means_arr = np.asarray(means, dtype=float)
        sigmas_arr = np.asarray(sigmas, dtype=float)
        if not (weights_arr.shape == means_arr.shape == sigmas_arr.shape):
            raise DistributionError("weights, means and sigmas must have the same length")
        if weights_arr.size == 0:
            raise DistributionError("a mixture needs at least one component")
        if np.any(sigmas_arr <= 0.0) or not np.all(np.isfinite(sigmas_arr)):
            raise DistributionError("all component sigmas must be positive and finite")
        if not np.all(np.isfinite(means_arr)):
            raise DistributionError("all component means must be finite")
        self.weights = weights_arr
        self.means = means_arr
        self.sigmas = sigmas_arr

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_components(cls, components: Iterable[Tuple[float, Gaussian]]) -> GaussianMixture:
        """Build a mixture from ``(weight, Gaussian)`` pairs."""
        comps = list(components)
        if not comps:
            raise DistributionError("a mixture needs at least one component")
        return cls(
            [w for w, _ in comps],
            [g.mu for _, g in comps],
            [g.sigma for _, g in comps],
        )

    @classmethod
    def single(cls, gaussian: Gaussian) -> GaussianMixture:
        """Wrap a single Gaussian as a one-component mixture."""
        return cls([1.0], [gaussian.mu], [gaussian.sigma])

    @property
    def n_components(self) -> int:
        return int(self.weights.size)

    def components(self) -> List[Tuple[float, Gaussian]]:
        """Return the mixture as a list of ``(weight, Gaussian)`` pairs."""
        return [
            (float(w), Gaussian(float(m), float(s)))
            for w, m, s in zip(self.weights, self.means, self.sigmas)
        ]

    # ------------------------------------------------------------------
    # Distribution interface
    # ------------------------------------------------------------------
    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x)[..., None]
        z = (xs - self.means) / self.sigmas
        comp = np.exp(-0.5 * z * z) / (self.sigmas * _SQRT_2PI)
        out = comp @ self.weights
        return float(out[0]) if x.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x)[..., None]
        comp = 0.5 * (1.0 + erf((xs - self.means) / (self.sigmas * math.sqrt(2.0))))
        out = comp @ self.weights
        return float(out[0]) if x.ndim == 0 else out

    def mean(self) -> float:
        return float(np.dot(self.weights, self.means))

    def variance(self) -> float:
        # Taken about the mean, not as E[X^2] - mean^2, which cancels
        # when the components sit far from zero relative to their spread.
        deviations = self.means - self.mean()
        return float(np.dot(self.weights, self.sigmas ** 2 + deviations ** 2))

    def sample(self, size: int = 1, rng=None) -> np.ndarray:
        rng = as_rng(rng)
        choices = rng.choice(self.n_components, size=size, p=self.weights)
        return rng.normal(self.means[choices], self.sigmas[choices])

    def support(self) -> Tuple[float, float]:
        lo = float(np.min(self.means - 12.0 * self.sigmas))
        hi = float(np.max(self.means + 12.0 * self.sigmas))
        return (lo, hi)

    def characteristic_function(self, t):
        t = np.asarray(t, dtype=float)
        ts = np.atleast_1d(t)[..., None]
        comp = np.exp(1j * self.means * ts - 0.5 * (self.sigmas ** 2) * ts * ts)
        out = comp @ self.weights.astype(complex)
        return complex(out[0]) if t.ndim == 0 else out

    # ------------------------------------------------------------------
    # Algebra and model quality
    # ------------------------------------------------------------------
    def shift(self, offset: float) -> GaussianMixture:
        """Return the distribution of ``X + offset``."""
        return GaussianMixture(self.weights, self.means + offset, self.sigmas)

    def scale(self, factor: float) -> GaussianMixture:
        """Return the distribution of ``factor * X`` (factor != 0)."""
        if factor == 0.0:
            raise DistributionError("scaling a mixture by zero collapses it to a point mass")
        return GaussianMixture(self.weights, self.means * factor, self.sigmas * abs(factor))

    def convolve_gaussian(self, other: Gaussian) -> GaussianMixture:
        """Return the distribution of the sum with an independent Gaussian."""
        sigmas = np.sqrt(self.sigmas ** 2 + other.sigma ** 2)
        return GaussianMixture(self.weights, self.means + other.mu, sigmas)

    def convolve(self, other: GaussianMixture) -> GaussianMixture:
        """Return the mixture of the sum with an independent mixture.

        The result has ``n * m`` components; callers aggregating long
        windows should periodically re-compress (e.g. via EM refit) to
        keep the component count bounded.
        """
        if isinstance(other, Gaussian):
            return self.convolve_gaussian(other)
        if not isinstance(other, GaussianMixture):
            raise TypeError("convolve expects a GaussianMixture or Gaussian")
        weights = np.outer(self.weights, other.weights).ravel()
        means = np.add.outer(self.means, other.means).ravel()
        variances = np.add.outer(self.sigmas ** 2, other.sigmas ** 2).ravel()
        return GaussianMixture(weights, means, np.sqrt(variances))

    def log_likelihood(self, data: Sequence[float], weights: Sequence[float] | None = None) -> float:
        """Return the (optionally weighted) log-likelihood of ``data``."""
        data = np.asarray(data, dtype=float)
        dens = np.maximum(self.pdf(data), 1e-300)
        logs = np.log(dens)
        if weights is None:
            return float(np.sum(logs))
        w = np.asarray(weights, dtype=float)
        if w.shape != data.shape:
            raise ValueError("weights must match data shape")
        return float(np.sum(w * logs))

    def n_parameters(self) -> int:
        """Return the number of free parameters (for AIC/BIC)."""
        return 3 * self.n_components - 1

    def aic(self, data: Sequence[float], weights: Sequence[float] | None = None) -> float:
        """Akaike Information Criterion on ``data`` (lower is better)."""
        n_eff = _effective_sample_size(data, weights)
        ll = self.log_likelihood(data, weights)
        if weights is not None:
            ll *= n_eff / float(np.sum(np.asarray(weights, dtype=float)))
        return 2.0 * self.n_parameters() - 2.0 * ll

    def bic(self, data: Sequence[float], weights: Sequence[float] | None = None) -> float:
        """Bayesian Information Criterion on ``data`` (lower is better)."""
        n_eff = _effective_sample_size(data, weights)
        ll = self.log_likelihood(data, weights)
        if weights is not None:
            ll *= n_eff / float(np.sum(np.asarray(weights, dtype=float)))
        return self.n_parameters() * math.log(max(n_eff, 2.0)) - 2.0 * ll

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"GaussianMixture(k={self.n_components}, mean={self.mean():.4g})"


def _effective_sample_size(data: Sequence[float], weights: Sequence[float] | None) -> float:
    data = np.asarray(data, dtype=float)
    if weights is None:
        return float(data.size)
    w = np.asarray(weights, dtype=float)
    total = float(np.sum(w))
    if total <= 0:
        raise DistributionError("weights must sum to a positive value")
    return float(total ** 2 / np.sum(w ** 2))


def fit_gmm_em(
    data: Sequence[float],
    n_components: int,
    weights: Sequence[float] | None = None,
    max_iter: int = 200,
    tol: float = 1e-7,
    rng: np.random.Generator | int | None = None,
    min_sigma: float = 1e-6,
) -> GaussianMixture:
    """Fit a :class:`GaussianMixture` to (optionally weighted) samples by EM.

    Weighted data corresponds to the particle representation of a
    tuple-level distribution: ``{(x_i, w_i)}``.  Minimising
    ``KL(p_hat || q)`` over the mixture family is equivalent to
    maximising the weighted log-likelihood, which EM does.

    Parameters
    ----------
    data:
        Sample values.
    n_components:
        Number of mixture components (``>= 1``).
    weights:
        Optional non-negative sample weights; default is uniform.
    max_iter, tol:
        EM stopping criteria (iterations / relative log-likelihood change).
    rng:
        Random generator or seed for the k-means++-style initialisation.
    min_sigma:
        Lower bound on component standard deviations to avoid collapse.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise DistributionError("EM requires a non-empty one-dimensional sample")
    if n_components < 1:
        raise DistributionError("n_components must be at least 1")
    if weights is None:
        w = np.full(data.size, 1.0 / data.size)
    else:
        w = normalize_weights(weights)
        if w.shape != data.shape:
            raise DistributionError("weights must match data shape")

    if n_components == 1:
        mu = float(np.dot(w, data))
        var = float(np.dot(w, (data - mu) ** 2))
        return GaussianMixture([1.0], [mu], [max(math.sqrt(var), min_sigma)])

    rng = as_rng(rng)
    # Initialise means by weighted quantiles so the components spread over
    # the data; initial sigma is the overall spread.
    order = np.argsort(data)
    cum = np.cumsum(w[order])
    targets = (np.arange(n_components) + 0.5) / n_components
    idx = np.searchsorted(cum, targets)
    idx = np.clip(idx, 0, data.size - 1)
    means = data[order][idx].astype(float)
    means += rng.normal(0.0, 1e-9 + 1e-6 * (np.std(data) + 1.0), size=n_components)
    overall_mu = float(np.dot(w, data))
    overall_sigma = math.sqrt(float(np.dot(w, (data - overall_mu) ** 2)))
    sigmas = np.full(n_components, max(overall_sigma, min_sigma))
    mix = np.full(n_components, 1.0 / n_components)

    prev_ll = -np.inf
    for _ in range(max_iter):
        # E step: responsibilities.
        z = (data[:, None] - means) / sigmas
        log_comp = -0.5 * z * z - np.log(sigmas * _SQRT_2PI) + np.log(np.maximum(mix, 1e-300))
        log_norm = np.logaddexp.reduce(log_comp, axis=1)
        resp = np.exp(log_comp - log_norm[:, None])
        ll = float(np.dot(w, log_norm))

        # M step with sample weights folded in.
        wr = resp * w[:, None]
        comp_mass = wr.sum(axis=0)
        comp_mass = np.maximum(comp_mass, 1e-300)
        mix = comp_mass / comp_mass.sum()
        means = (wr * data[:, None]).sum(axis=0) / comp_mass
        variances = (wr * (data[:, None] - means) ** 2).sum(axis=0) / comp_mass
        sigmas = np.sqrt(np.maximum(variances, min_sigma ** 2))

        if abs(ll - prev_ll) <= tol * (1.0 + abs(ll)):
            break
        prev_ll = ll

    return GaussianMixture(mix, means, sigmas)


def select_components(
    data: Sequence[float],
    weights: Sequence[float] | None = None,
    max_components: int = 4,
    criterion: str = "bic",
    rng: np.random.Generator | int | None = None,
) -> GaussianMixture:
    """Fit mixtures with 1..``max_components`` components and pick the best.

    The selection criterion is AIC or BIC as described in Section 4.3:
    both "attempt to choose a number of components that explain the data
    well while penalizing models that require many mixture components".
    """
    criterion = criterion.lower()
    if criterion not in ("aic", "bic"):
        raise ValueError(f"criterion must be 'aic' or 'bic', got {criterion!r}")
    if max_components < 1:
        raise ValueError("max_components must be at least 1")
    best: GaussianMixture | None = None
    best_score = np.inf
    for k in range(1, max_components + 1):
        candidate = fit_gmm_em(data, k, weights=weights, rng=rng)
        score = candidate.bic(data, weights) if criterion == "bic" else candidate.aic(data, weights)
        if score < best_score - 1e-12:
            best = candidate
            best_score = score
    assert best is not None  # max_components >= 1 guarantees at least one fit
    return best
