"""Particle filtering with the paper's stream-speed optimisations.

Section 4.1 describes sampling-based inference for the RFID T operator
and three optimisations that take it from 0.1 readings/second for 20
objects to over 1000 readings/second for 20 000 objects:

* **Factorisation** -- instead of one particle set over the joint state
  of all objects, keep an independent particle set per object (valid
  because object locations are conditionally independent given the
  reader trajectory).  :class:`FactorizedParticleFilter`.
* **Spatial indexing** -- only the objects near the reader can produce
  (or suppress) a reading, so only their filters need to be touched for
  each event.  A grid-cell array (:mod:`repro.inference.spatial_index`)
  in the factorised filter's arena.
* **Compression** -- once an object's particle cloud has stabilised in
  a small region, fewer particles suffice; the filter shrinks the cloud.

A joint (non-factorised) filter is also provided as the ablation
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.distributions import (
    MultivariateGaussian,
    ParticleDistribution,
    as_rng,
    fit_multivariate_gaussian,
)

from .graphical_model import StateSpaceModel
from .resampling import effective_sample_size, segmented_systematic_resample, systematic_resample
from .spatial_index import cells_in_range, grid_cells

__all__ = [
    "CompressionConfig",
    "ParticleFilter",
    "FactorizedParticleFilter",
    "JointParticleFilter",
]


@dataclass(frozen=True)
class CompressionConfig:
    """Particle-cloud compression policy (Section 4.1, third optimisation).

    When the largest per-dimension standard deviation of a variable's
    particle cloud drops below ``stability_threshold``, the cloud is
    resampled down to ``compressed_count`` particles.  If it later grows
    above ``expansion_threshold`` (e.g. the object moved), the cloud is
    re-expanded to the filter's full particle count.
    """

    stability_threshold: float = 0.5
    compressed_count: int = 25
    expansion_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.stability_threshold <= 0:
            raise ValueError("stability_threshold must be positive")
        if self.compressed_count < 2:
            raise ValueError("compressed_count must be at least 2")
        if self.expansion_threshold <= self.stability_threshold:
            raise ValueError("expansion_threshold must exceed stability_threshold")


class ParticleFilter:
    """A bootstrap particle filter over one hidden variable.

    Particles are stored as an ``(n, d)`` array with a parallel weight
    vector.  The filter follows the usual predict / update / resample
    cycle; resampling is triggered when the effective sample size drops
    below ``resample_fraction * n``.
    """

    def __init__(
        self,
        model: StateSpaceModel,
        n_particles: int = 100,
        resample_fraction: float = 0.5,
        rng: np.random.Generator | int | None = None,
    ):
        if n_particles < 2:
            raise ValueError("n_particles must be at least 2")
        if not 0.0 < resample_fraction <= 1.0:
            raise ValueError("resample_fraction must lie in (0, 1]")
        self.model = model
        self.resample_fraction = resample_fraction
        self._rng = as_rng(rng)
        self.particles = model.sample_prior(n_particles, self._rng)
        self.weights = np.full(n_particles, 1.0 / n_particles)

    # ------------------------------------------------------------------
    # Filtering cycle
    # ------------------------------------------------------------------
    @property
    def n_particles(self) -> int:
        return int(self.particles.shape[0])

    def predict(self, dt: float) -> None:
        """Propagate every particle through the transition model."""
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if dt == 0:
            return
        self.particles = np.asarray(
            self.model.transition.propagate(self.particles, dt, self._rng), dtype=float
        )

    def update(self, observation) -> float:
        """Reweight particles with the observation likelihood.

        Returns the (pre-normalisation) average likelihood, a proxy for
        how well the observation was explained.  If every particle has
        zero likelihood the weights are reset to uniform, which keeps
        the filter alive under severely conflicting evidence.
        """
        likelihood = np.asarray(
            self.model.observation.likelihood(self.particles, observation), dtype=float
        )
        likelihood = np.maximum(likelihood, 0.0)
        evidence = float(np.dot(self.weights, likelihood))
        raw = self.weights * likelihood
        total = raw.sum()
        if total <= 0.0 or not np.isfinite(total):
            self.weights = np.full(self.n_particles, 1.0 / self.n_particles)
        else:
            self.weights = raw / total
        if effective_sample_size(self.weights) < self.resample_fraction * self.n_particles:
            self.resample()
        return evidence

    def resample(self, size: Optional[int] = None) -> None:
        """Systematically resample to ``size`` (default: current count)."""
        n = size if size is not None else self.n_particles
        idx = systematic_resample(self.weights, n, self._rng)
        self.particles = self.particles[idx]
        self.weights = np.full(n, 1.0 / n)

    # ------------------------------------------------------------------
    # Posterior access
    # ------------------------------------------------------------------
    def estimate(self) -> np.ndarray:
        """Return the weighted-mean state estimate."""
        return self.weights @ self.particles

    def spread(self) -> np.ndarray:
        """Return the per-dimension weighted standard deviation."""
        mean = self.estimate()
        var = self.weights @ (self.particles - mean) ** 2
        return np.sqrt(np.maximum(var, 0.0))

    def marginal(self, dimension: int) -> ParticleDistribution:
        """Return the weighted-sample marginal of one state dimension."""
        if not 0 <= dimension < self.particles.shape[1]:
            raise IndexError(f"dimension {dimension} out of range")
        return ParticleDistribution(self.particles[:, dimension], self.weights)

    def posterior_gaussian(self) -> MultivariateGaussian:
        """Return the KL-optimal multivariate Gaussian fit of the cloud."""
        return fit_multivariate_gaussian(self.particles, self.weights)

    def set_particle_count(self, n: int) -> None:
        """Resample the cloud to exactly ``n`` particles."""
        if n < 2:
            raise ValueError("particle count must be at least 2")
        self.resample(size=n)


def _segment_moments(
    particles: np.ndarray, weights: np.ndarray, sizes: np.ndarray, starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted mean and biased weighted variance of each cloud of a back-to-back pool."""
    # Same-shape products: several times faster than broadcasting (n, 1)
    # weights against (n, d) points, with the same values.
    weights = np.repeat(weights, particles.shape[1]).reshape(particles.shape)
    estimates = np.add.reduceat(weights * particles, starts)
    deviation = particles - np.repeat(estimates, sizes, axis=0)
    spread = weights * deviation
    spread *= deviation
    return estimates, np.add.reduceat(spread, starts)


def _as_items(points: np.ndarray) -> np.ndarray:
    """View ``(..., d)`` float points as a flat array of ``d``-float items (a view if contiguous).

    Fancy indexing on it is several times faster than on ``(n, d)`` rows.
    """
    points = np.ascontiguousarray(points, dtype=float)
    dim = points.shape[-1]
    return points.reshape(-1, dim).view(np.dtype((np.void, points.itemsize * dim))).reshape(-1)


def _arena_view(name: str, doc: str) -> property:
    return property(lambda self: getattr(self, name)[: len(self._ids)], doc=doc)


class FactorizedParticleFilter:
    """Per-variable particle clouds in one arena, with spatial indexing and compression.

    Each tracked variable owns one row of the arena arrays below, in
    registration order; its cloud is the first ``sizes[i]`` entries of
    the row.  :class:`ParticleFilter` is the per-object reference.

    Parameters
    ----------
    n_particles:
        Particle budget per variable (before compression).
    use_spatial_index / index_cell_size:
        Enable the spatial-index optimisation; the cell size should be
        on the order of the sensing range.
    compression:
        Optional :class:`CompressionConfig` enabling cloud compression.
    resample_fraction:
        ESS fraction below which a variable's cloud is resampled.
    rng:
        Shared random generator or seed.
    """

    particles = _arena_view("_particles", "``(n_vars, W, d)`` particle clouds.")
    weights = _arena_view("_weights", "``(n_vars, W)`` normalised weights.")
    sizes = _arena_view("_sizes", "``(n_vars,)`` cloud sizes: the used prefix of each row.")
    estimates = _arena_view("_estimates", "``(n_vars, d)`` weighted mean of each cloud.")
    variances = _arena_view("_variances", "``(n_vars, d)`` biased weighted variances.")
    cells = _arena_view("_cells", "``(n_vars, 2)`` spatial index: each estimate's cell.")

    def __init__(
        self,
        n_particles: int = 100,
        use_spatial_index: bool = True,
        index_cell_size: float = 10.0,
        compression: Optional[CompressionConfig] = None,
        resample_fraction: float = 0.5,
        rng: np.random.Generator | int | None = None,
    ):
        if n_particles < 2:
            raise ValueError("n_particles must be at least 2")
        if not 0.0 < resample_fraction <= 1.0:
            raise ValueError("resample_fraction must lie in (0, 1]")
        if use_spatial_index and index_cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.n_particles = n_particles
        self.resample_fraction = resample_fraction
        self.compression = compression
        #: Grid cell side of the spatial index (None: index disabled).
        self.cell_size = float(index_cell_size) if use_spatial_index else None
        self._rng = as_rng(rng)
        self._ids: List[object] = []
        self._row: Dict[object, int] = {}
        #: The state-space model every variable shares (set by the first one).
        self.model: Optional[StateSpaceModel] = None
        self._resize(0, n_particles, 0)
        #: Number of per-variable filter updates performed (diagnostic for
        #: measuring how much work the spatial index saves).
        self.updates_performed = 0

    def _resize(self, capacity: int, width: int, dim: int) -> None:
        """Reallocate the arena to ``capacity`` rows of ``width`` particles, keeping its rows."""
        n = len(self._ids)
        for name, shape, dtype in (
            ("_particles", (capacity, width, dim), float),
            ("_weights", (capacity, width), float),
            ("_sizes", (capacity,), np.intp),
            ("_estimates", (capacity, dim), float),
            ("_variances", (capacity, dim), float),
            ("_cells", (capacity, 2), np.int64),
        ):
            array = np.zeros(shape, dtype)
            if n:
                old = getattr(self, name)[:n]
                array[tuple(slice(0, s) for s in old.shape)] = old
            setattr(self, name, array)

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------
    def add_variable(self, var_id, model: StateSpaceModel) -> None:
        """Register a hidden variable (e.g. one tagged object), drawing its prior cloud."""
        if var_id in self._row:
            raise ValueError(f"variable {var_id!r} already tracked")
        if self.model is not None and model is not self.model:
            raise ValueError("every variable must share the filter's state-space model")
        self.model = model
        n = self.n_particles
        particles = model.sample_prior(n, self._rng)
        row, dim = len(self._ids), particles.shape[1]
        capacity, width = self._weights.shape
        if row == capacity or n > width:
            self._resize(max(2 * capacity, 16) if row == capacity else capacity, max(width, n), dim)
        weights = np.full(n, 1.0 / n)
        estimate = weights @ particles  # as ParticleFilter.estimate()
        self._particles[row, :n] = particles
        self._weights[row, :n] = weights
        self._sizes[row] = n
        self._estimates[row] = estimate
        self._variances[row] = weights @ (particles - estimate) ** 2
        if self.cell_size is not None:
            self._cells[row] = grid_cells(estimate[None], self.cell_size)[0]
        self._row[var_id] = row
        self._ids.append(var_id)

    def variables(self) -> List[object]:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, var_id) -> bool:
        return var_id in self._row

    def rows(self, var_ids: Iterable[object]) -> np.ndarray:
        """Return the arena rows of ``var_ids``."""
        return np.array([self._row[var_id] for var_id in var_ids], dtype=np.intp)

    def cloud(self, var_id) -> Tuple[np.ndarray, np.ndarray]:
        """Return copies of one variable's particles and weights."""
        row = self._row[var_id]
        size = self._sizes[row]
        return self._particles[row, :size].copy(), self._weights[row, :size].copy()

    def _gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return copies of the clouds of ``rows`` back to back: ``(particles, weights, sizes)``."""
        sizes = self._sizes[rows]
        slots = self._slots(rows, sizes)
        dim = self._particles.shape[2]
        if slots is None:
            return self._particles[rows].reshape(-1, dim), self._weights[rows].reshape(-1), sizes
        particles = _as_items(self._particles)[slots].view(float).reshape(-1, dim)
        return particles, self._weights.reshape(-1)[slots], sizes

    def _slots(self, rows: np.ndarray, sizes: np.ndarray) -> Optional[np.ndarray]:
        """Flat arena positions of the clouds of ``rows`` back to back (None: all full width)."""
        width = self._weights.shape[1]
        if not sizes.size or sizes.min() == width:
            return None
        ends = np.cumsum(sizes)
        return np.repeat(rows * width - (ends - sizes), sizes) + np.arange(ends[-1])

    def _scatter(
        self, rows: np.ndarray, sizes: np.ndarray, particles: np.ndarray, weights: np.ndarray
    ) -> None:
        """Write back-to-back clouds of ``sizes`` particles into ``rows``: undoes :meth:`_gather`."""
        slots = self._slots(rows, sizes)
        _, width, dim = self._particles.shape
        if slots is None:
            self._particles[rows] = particles.reshape(rows.size, width, dim)
            self._weights[rows] = weights.reshape(rows.size, width)
        else:
            _as_items(self._particles)[slots] = _as_items(particles)
            self._weights.reshape(-1)[slots] = weights

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def _candidate_mask(self, region: Optional[Tuple[float, float, float]]) -> np.ndarray:
        """Mask the variables an event around ``region = (x, y, radius)`` must process.

        A variable qualifies when its cell overlaps the bounding square of
        the disc (:func:`cells_in_range`).  Without the spatial index (or
        a region) every variable does, which is the work the index saves.
        """
        n = len(self._ids)
        if region is None or self.cell_size is None:
            return np.ones(n, dtype=bool)
        x, y, radius = region
        return cells_in_range(self._cells[:n], x, y, radius, self.cell_size)

    def candidates(self, region: Optional[Tuple[float, float, float]]) -> List[object]:
        """Return the variables :meth:`_candidate_mask` selects, in registration order."""
        return [self._ids[row] for row in np.flatnonzero(self._candidate_mask(region)).tolist()]

    def step(
        self,
        dt: float,
        observation_for: Callable[[object], Optional[object]],
        region: Optional[Tuple[float, float, float]] = None,
        include: Iterable[object] = (),
    ) -> List[object]:
        """Advance every filter affected by one sensing event in one batched pass.

        The candidates are the variables :meth:`candidates` returns for
        ``region`` plus every tracked variable in ``include``; each gets
        the observation ``observation_for`` returns for it (None: no
        observation).  Returns the candidates in registration order.
        """
        chosen = self._candidate_mask(region)
        chosen[[self._row[var_id] for var_id in include if var_id in self._row]] = True
        processed = [self._ids[row] for row in np.flatnonzero(chosen).tolist()]
        self.step_observed(dt, {v: observation_for(v) for v in processed}, None, region)
        return processed

    def step_observed(
        self,
        dt: float,
        observations: Mapping[object, object],
        default: Optional[object] = None,
        region: Optional[Tuple[float, float, float]] = None,
    ) -> np.ndarray:
        """:meth:`step` with Python work only per entry of ``observations``.

        Every tracked key of ``observations`` is a candidate, even when the
        index files it far from ``region`` (e.g. a detected object that
        just moved), and is reweighted with its value; the other
        candidates get ``default``.  Returns the candidates' rows in
        registration order.

        The clouds are gathered into one pool with one contiguous block per
        observation, blocks in order of their first candidate, so that one
        ``propagate`` call and one ``likelihood`` call per block do the
        maths.  Collapsed sets are redrawn in place; compression resamples
        only the rows it changes.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        chosen = self._candidate_mask(region)
        codes = np.zeros(chosen.size, dtype=np.intp)
        # Observations numbered by identity (default first); the dict holds
        # each one, so no other object can take over its id meanwhile.
        distinct: Dict[int, Tuple[int, object]] = {id(default): (0, default)}
        for var_id, observation in observations.items():
            row = self._row.get(var_id)
            if row is not None:
                chosen[row] = True
                codes[row] = distinct.setdefault(id(observation), (len(distinct), observation))[0]
        all_rows = np.flatnonzero(chosen)
        if not all_rows.size:
            return all_rows
        observations = [observation for _, observation in distinct.values()]
        codes = codes[all_rows]
        # Key each candidate by its observation's first candidate: a stable
        # sort on that key lays the blocks out in order of first appearance.
        first = np.full(len(observations), all_rows.size)
        np.minimum.at(first, codes, np.arange(all_rows.size))
        key = first[codes]
        order = np.argsort(key, kind="stable")
        rows, key = all_rows[order], key[order]
        heads = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        block_ends = [*heads[1:].tolist(), rows.size]
        block_observations = [observations[code] for code in codes[key[heads]].tolist()]

        particles, weights, sizes = self._gather(rows)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        if dt > 0:
            moved = self.model.transition.propagate(particles, dt, self._rng)
            particles = np.ascontiguousarray(moved, dtype=float)
        observed = np.zeros(rows.size, dtype=bool)
        begin = 0
        for observation, end in zip(block_observations, block_ends):
            if observation is not None:
                pool = slice(starts[begin], ends[end - 1])
                likelihood = self.model.observation.likelihood(particles[pool], observation)
                weights[pool] *= np.maximum(np.asarray(likelihood, dtype=float), 0.0)
                observed[begin:end] = True
            begin = end
        if observed.any():
            totals = np.add.reduceat(weights, starts)
            # Zero or non-finite evidence resets a set to uniform weights,
            # which keeps its filter alive under conflicting evidence.
            degenerate = observed & ~((totals > 0.0) & np.isfinite(totals))
            weights /= np.repeat(np.where(observed & ~degenerate, totals, 1.0), sizes)
            if degenerate.any():
                reset = sizes[degenerate]
                weights[np.repeat(degenerate, sizes)] = np.repeat(1.0 / reset, reset)
            ess = 1.0 / np.add.reduceat(weights * weights, starts)
            collapsed = observed & (ess < self.resample_fraction * sizes)
            if collapsed.any():
                # A collapsed set is redrawn to its own size, so in its own slots.
                pool = np.flatnonzero(np.repeat(collapsed, sizes))
                counts = sizes[collapsed]
                items = _as_items(particles)  # a view: the pool is contiguous
                items[pool] = items[pool[self._draw(weights[pool], counts, counts)]]
                weights[pool] = np.repeat(1.0 / counts, counts)
            self.updates_performed += int(np.count_nonzero(observed))

        estimates, variances = _segment_moments(particles, weights, sizes, starts)
        self._scatter(rows, sizes, particles, weights)
        self._estimates[rows] = estimates
        self._variances[rows] = variances
        if self.cell_size is not None:
            self._cells[rows] = grid_cells(estimates, self.cell_size)
        if self.compression is not None:
            config = self.compression
            spread = np.sqrt(np.maximum(variances, 0.0)).max(axis=1)
            shrink = (spread < config.stability_threshold) & (sizes > config.compressed_count)
            expand = (spread > config.expansion_threshold) & (sizes < self.n_particles)
            if shrink.any() or expand.any():
                targets = np.where(shrink, config.compressed_count, self.n_particles)
                self._resample_rows(rows[shrink | expand], targets[shrink | expand])
        return all_rows

    def _draw(self, weights: np.ndarray, sizes: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Systematic resampling of back-to-back sets, one offset each off the shared generator."""
        return segmented_systematic_resample(weights, sizes, targets, self._rng.random(sizes.size))

    def _resample_rows(self, rows: np.ndarray, targets: np.ndarray) -> None:
        """Resample the clouds of ``rows`` to ``targets`` particles, writing only those rows."""
        if targets.max() > self._weights.shape[1]:
            self._resize(self._weights.shape[0], int(targets.max()), self._particles.shape[2])
        particles, weights, sizes = self._gather(rows)
        particles = particles[self._draw(weights, sizes, targets)]
        weights = np.repeat(1.0 / targets, targets)
        self._sizes[rows] = targets
        self._scatter(rows, targets, particles, weights)
        self._estimates[rows], self._variances[rows] = _segment_moments(
            particles, weights, targets, np.cumsum(targets) - targets
        )

    def set_particle_count(self, n: int) -> None:
        """Make ``n`` the particle budget (and compression's expansion size); resample to it.

        Clouds of another size are redrawn in registration order, one offset
        each, as per-variable :meth:`ParticleFilter.set_particle_count` calls
        would; the arena widens when ``n`` exceeds ``W``.
        """
        if n < 2:
            raise ValueError("particle count must be at least 2")
        self.n_particles = n
        rows = np.flatnonzero(self.sizes != n)
        if rows.size:
            self._resample_rows(rows, np.full(rows.size, n))

    # ------------------------------------------------------------------
    # Posterior access
    # ------------------------------------------------------------------
    def estimate(self, var_id) -> np.ndarray:
        return self._estimates[self._row[var_id]].copy()

    def posterior_gaussian(self, var_id) -> MultivariateGaussian:
        return fit_multivariate_gaussian(*self.cloud(var_id))

    def marginal(self, var_id, dimension: int) -> ParticleDistribution:
        particles, weights = self.cloud(var_id)
        if not 0 <= dimension < particles.shape[1]:
            raise IndexError(f"dimension {dimension} out of range")
        return ParticleDistribution(particles[:, dimension], weights)

    def total_particles(self) -> int:
        """Return the total number of particles across all variables."""
        return int(self.sizes.sum())


class JointParticleFilter:
    """A non-factorised filter over the concatenated state of all variables.

    This is the ablation baseline: a single particle set over the joint
    state space.  Each particle stores every variable's state, so the
    number of particles needed to cover the joint space grows quickly
    with the number of variables (the paper's "worst case of an
    exponential number of particles"), and each event touches every
    variable's coordinates.
    """

    def __init__(
        self,
        n_particles: int = 200,
        resample_fraction: float = 0.5,
        rng: np.random.Generator | int | None = None,
    ):
        if n_particles < 2:
            raise ValueError("n_particles must be at least 2")
        self.n_particles = n_particles
        self.resample_fraction = resample_fraction
        self._rng = as_rng(rng)
        self._models: Dict[object, StateSpaceModel] = {}
        self._order: List[object] = []
        self._particles: Optional[np.ndarray] = None  # (n, total_dim)
        self.weights = np.full(n_particles, 1.0 / n_particles)

    def add_variable(self, var_id, model: StateSpaceModel) -> None:
        if var_id in self._models:
            raise ValueError(f"variable {var_id!r} already tracked")
        self._models[var_id] = model
        self._order.append(var_id)
        prior = model.sample_prior(self.n_particles, self._rng)
        if self._particles is None:
            self._particles = prior
        else:
            self._particles = np.hstack([self._particles, prior])

    def _slice(self, var_id) -> slice:
        offset = 0
        for vid in self._order:
            dim = self._models[vid].state_dim
            if vid == var_id:
                return slice(offset, offset + dim)
            offset += dim
        raise KeyError(f"unknown variable {var_id!r}")

    def step(
        self,
        dt: float,
        observation_for: Callable[[object], Optional[object]],
        region: Optional[Tuple[float, float, float]] = None,
    ) -> List[object]:
        """Advance the joint filter by one event (all variables touched)."""
        if self._particles is None:
            return []
        log_likelihood = np.zeros(self.n_particles)
        for var_id in self._order:
            model = self._models[var_id]
            block = self._slice(var_id)
            states = self._particles[:, block]
            if dt > 0:
                states = np.asarray(model.transition.propagate(states, dt, self._rng), dtype=float)
                self._particles[:, block] = states
            observation = observation_for(var_id)
            if observation is not None:
                likelihood = np.maximum(
                    np.asarray(model.observation.likelihood(states, observation), dtype=float), 1e-300
                )
                log_likelihood += np.log(likelihood)
        weights = self.weights * np.exp(log_likelihood - log_likelihood.max())
        total = weights.sum()
        if total <= 0 or not np.isfinite(total):
            self.weights = np.full(self.n_particles, 1.0 / self.n_particles)
        else:
            self.weights = weights / total
        if effective_sample_size(self.weights) < self.resample_fraction * self.n_particles:
            idx = systematic_resample(self.weights, self.n_particles, self._rng)
            self._particles = self._particles[idx]
            self.weights = np.full(self.n_particles, 1.0 / self.n_particles)
        return list(self._order)

    def estimate(self, var_id) -> np.ndarray:
        if self._particles is None:
            raise KeyError("no variables tracked")
        block = self._slice(var_id)
        return self.weights @ self._particles[:, block]

    def variables(self) -> List[object]:
        return list(self._order)
