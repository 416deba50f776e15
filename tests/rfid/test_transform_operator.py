"""Tests for the RFID data capture and transformation (T) operator."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.core import CompressionPolicy
from repro.distributions import Gaussian, GaussianMixture, ParticleDistribution
from repro.inference import (
    CompressionConfig,
    FactorizedParticleFilter,
    ParticleCountController,
    ParticleFilter,
)
from repro.rfid import (
    DetectionModel,
    DetectionObservation,
    MobileReaderSimulator,
    RFIDReading,
    RFIDTransformOperator,
    WarehouseWorld,
    build_object_model,
)
from repro.streams import StreamTuple
from repro.workloads import noisy_detection_model


def make_setup(
    n_objects=40,
    n_particles=60,
    trace_seed=12,
    seed=13,
    operator_class=RFIDTransformOperator,
    **operator_kwargs,
):
    detection = DetectionModel(midpoint=10.0, steepness=0.8, max_rate=0.95)
    world = WarehouseWorld(width=60.0, height=30.0, n_objects=n_objects, move_rate=0.0, rng=11)
    simulator = MobileReaderSimulator(
        world,
        detection=detection,
        lane_spacing=7.5,
        speed=6.0,
        scan_interval=0.5,
        evolve_world=False,
        rng=trace_seed,
    )
    operator = operator_class(
        world,
        detection=detection,
        n_particles=n_particles,
        rng=seed,
        **operator_kwargs,
    )
    return world, simulator, operator


class TestRFIDTransformOperator:
    def test_emits_tuples_with_location_distributions(self):
        _, simulator, operator = make_setup()
        emitted = []
        for reading in simulator.readings(30):
            emitted.extend(operator.ingest(reading, reading.timestamp))
        assert emitted, "the sweep should detect and emit at least one object"
        for item in emitted:
            assert item.has_value("tag_id")
            assert isinstance(item.distribution("x"), (Gaussian, GaussianMixture))
            assert isinstance(item.distribution("y"), (Gaussian, GaussianMixture))

    def test_particles_compression_policy_ships_particles(self):
        _, simulator, operator = make_setup(compression=CompressionPolicy(mode="particles"))
        emitted = []
        for reading in simulator.readings(20):
            emitted.extend(operator.ingest(reading, reading.timestamp))
        assert emitted
        assert isinstance(emitted[0].distribution("x"), ParticleDistribution)

    def test_error_decreases_as_sweep_progresses(self):
        world, simulator, operator = make_setup(n_objects=30)
        initial_error = operator.mean_location_error()
        for reading in simulator.readings(220):
            list(operator.ingest(reading, reading.timestamp))
        final_error = operator.mean_location_error()
        assert final_error < initial_error

    def test_error_decreases_with_more_particles(self):
        errors = {}
        for particles in (25, 150):
            _, simulator, operator = make_setup(n_objects=30, n_particles=particles)
            for reading in simulator.readings(200):
                list(operator.ingest(reading, reading.timestamp))
            errors[particles] = operator.mean_location_error()
        assert errors[150] <= errors[25] + 1.0

    def test_spatial_index_reduces_updates(self):
        counts = {}
        for use_index in (True, False):
            _, simulator, operator = make_setup(n_objects=60, use_spatial_index=use_index)
            for reading in simulator.readings(40):
                list(operator.ingest(reading, reading.timestamp))
            counts[use_index] = operator.filter.updates_performed
        assert counts[True] < counts[False]

    def test_emit_modes(self):
        _, simulator, operator = make_setup(emit_mode="none")
        for reading in simulator.readings(10):
            assert list(operator.ingest(reading, reading.timestamp)) == []
        with pytest.raises(ValueError):
            make_setup(emit_mode="sometimes")

    def test_reference_tracking_feeds_accuracy_monitor(self):
        _, simulator, operator = make_setup(track_reference_tags=True)
        for reading in simulator.readings(80):
            list(operator.ingest(reading, reading.timestamp))
        assert operator.accuracy_monitor is not None
        assert operator.accuracy_monitor.current_error() is not None

    def test_adaptive_controller_caps_clouds_and_keeps_compressed_ones(self):
        # The controller's count is a ceiling: every cloud is at it, or one
        # that compression shrank and the controller left alone.
        controller = ParticleCountController(target_error=1.0, initial_count=20, max_count=160)
        _, simulator, operator = make_setup(
            track_reference_tags=True,
            adaptive_controller=controller,
            n_particles=20,
        )
        compressed_count = operator.filter.compression.compressed_count
        counts, compressed = [], 0
        for reading in simulator.readings(60):
            list(operator.ingest(reading, reading.timestamp))
            sizes = operator.filter.sizes
            assert np.all((sizes == controller.count) | (sizes <= compressed_count))
            compressed += int(np.count_nonzero(sizes < controller.count))
            counts.append(controller.count)
        assert compressed > 0
        # The count grew past the initial budget, so the arena had to widen.
        assert max(counts) > 20
        assert operator.filter.particles.shape[1] >= max(counts)


def grid_cells(points, cell_size):
    """The ``(n, 2)`` grid cells ``floor(xy / cell_size)`` of ``(n, >=2)`` points."""
    return np.floor(np.asarray(points, dtype=float)[:, :2] / cell_size).astype(np.int64)


def cells_in_range(cells, x, y, radius, cell_size):
    """Mask the cells overlapping the bounding square of the disc around ``(x, y)``."""
    low_x, low_y = math.floor((x - radius) / cell_size), math.floor((y - radius) / cell_size)
    high_x, high_y = math.floor((x + radius) / cell_size), math.floor((y + radius) / cell_size)
    cx, cy = cells[:, 0], cells[:, 1]
    return (cx >= low_x) & (cx <= high_x) & (cy >= low_y) & (cy <= high_y)


def reference_location_error(world, readings, detection, n_particles, seed):
    """Mean location error of the per-object filter loop the batched kernel replaced.

    One :class:`ParticleFilter` per object, stepped one at a time in id
    order: predict, update, re-index, then the compression decision.  It
    keeps the grid-cell candidate rule: every object whose estimate's cell
    (side: the sensing range) overlaps the bounding square of the disc.
    """
    rng = np.random.default_rng(seed)
    model = build_object_model(world.bounds(), detection=detection)
    sensing_range = detection.effective_range()
    config = CompressionConfig()
    filters = {
        tag: ParticleFilter(model, n_particles=n_particles, rng=rng) for tag in world.object_ids()
    }
    tags = list(filters)
    row_of = {tag: row for row, tag in enumerate(tags)}
    cell_size = max(sensing_range, 1.0)
    cells = grid_cells(np.array([pf.estimate() for pf in filters.values()]), cell_size)
    last = None
    for reading in readings:
        dt = 0.0 if last is None else max(reading.timestamp - last, 0.0)
        last = reading.timestamp
        detected = set(reading.detected_object_ids)
        mask = cells_in_range(cells, reading.reader_x, reading.reader_y, sensing_range, cell_size)
        near = {tags[i] for i in np.flatnonzero(mask)}
        for tag in sorted(near | (detected & filters.keys())):
            pf = filters[tag]
            pf.predict(dt)
            pf.update(DetectionObservation(reading.reader_x, reading.reader_y, tag in detected))
            cells[row_of[tag]] = grid_cells(pf.estimate()[None], cell_size)[0]
            spread = float(np.max(pf.spread()))
            if spread < config.stability_threshold and pf.n_particles > config.compressed_count:
                pf.resample(size=config.compressed_count)
            elif spread > config.expansion_threshold and pf.n_particles < n_particles:
                pf.resample(size=n_particles)
    truth = world.true_position
    return float(np.mean([np.linalg.norm(pf.estimate() - truth(tag)) for tag, pf in filters.items()]))


def test_batched_filter_accuracy_matches_per_object_reference():
    """The kernel draws random numbers in a different order than the
    per-object loop, so outputs differ bitwise; the contract is that the
    location error, as a distribution over seeds, does not get worse.
    """
    batched, reference = [], []
    for seed in range(1, 11):
        world, simulator, operator = make_setup(trace_seed=100 + seed, seed=seed)
        readings = list(simulator.readings(160))
        for reading in readings:
            list(operator.ingest(reading, reading.timestamp))
        batched.append(operator.mean_location_error())
        reference.append(
            reference_location_error(world, readings, operator.detection, n_particles=60, seed=seed)
        )
    assert abs(np.median(batched) - np.median(reference)) <= 0.5
    assert max(batched) <= max(reference) + 0.5


class PerObjectEmission(RFIDTransformOperator):
    """Per-object emission: one ``compress`` call per object and axis on its own cloud."""

    def _make_tuples(self, tag_ids, timestamp):
        out = []
        for tag_id in tag_ids:
            particles, weights = self.filter.cloud(tag_id)
            x = self.compression.compress(ParticleDistribution(particles[:, 0], weights), rng=self._rng)
            y = self.compression.compress(ParticleDistribution(particles[:, 1], weights), rng=self._rng)
            out.append(StreamTuple(timestamp=timestamp, values={"tag_id": tag_id}, uncertain={"x": x, "y": y}))
        return out


def emitted_by(operator_class, mode, n_readings):
    _, simulator, operator = make_setup(
        operator_class=operator_class, compression=CompressionPolicy(mode=mode)
    )
    emitted = []
    for reading in simulator.readings(n_readings):
        emitted.extend(operator.ingest(reading, reading.timestamp))
    return emitted


def distribution_state(dist):
    if isinstance(dist, ParticleDistribution):
        return ("particles", dist.values.tolist(), dist.weights.tolist())
    if isinstance(dist, GaussianMixture):
        return ("mixture", dist.weights.tolist(), dist.means.tolist(), dist.sigmas.tolist())
    return ("gaussian", dist.mu, dist.sigma)


@pytest.mark.parametrize("mode", ["particles", "mixture"])
def test_scan_batched_emission_is_unchanged_in_particles_and_mixture_modes(mode):
    batched = emitted_by(RFIDTransformOperator, mode, 30)
    reference = emitted_by(PerObjectEmission, mode, 30)
    assert len(batched) == len(reference) > 0
    for got, want in zip(batched, reference):
        assert (got.timestamp, got.values) == (want.timestamp, want.values)
        for axis in ("x", "y"):
            assert distribution_state(got.distribution(axis)) == distribution_state(want.distribution(axis))


def test_scan_batched_gaussian_emission_matches_per_object_fit():
    batched = emitted_by(RFIDTransformOperator, "gaussian", 60)
    reference = emitted_by(PerObjectEmission, "gaussian", 60)
    assert len(batched) == len(reference) > 0
    for got, want in zip(batched, reference):
        assert (got.timestamp, got.values) == (want.timestamp, want.values)
        for axis in ("x", "y"):
            g, w = got.distribution(axis), want.distribution(axis)
            assert g.mu == pytest.approx(w.mu, rel=1e-12, abs=1e-12)
            assert g.sigma == pytest.approx(w.sigma, rel=1e-12)


def test_a_tag_read_twice_in_one_scan_is_emitted_once():
    world, _, operator = make_setup()
    a, b, c = world.object_ids()[:3]
    reading = RFIDReading(
        timestamp=0.5, reader_x=5.0, reader_y=5.0, detected_object_ids=(b, a, b, c, a), detected_shelf_ids=()
    )
    assert [t.value("tag_id") for t in operator.ingest(reading, reading.timestamp)] == [b, a, c]


class CellRuleFilter(FactorizedParticleFilter):
    """The candidate rule the disc test replaced: every estimate whose grid cell
    (side: the sensing range) overlaps the bounding square of the disc."""

    def _candidate_mask(self, region):
        if region is None:
            return np.ones(len(self), dtype=bool)
        x, y, radius = region
        cell_size = max(radius, 1.0)
        return cells_in_range(grid_cells(self.estimates, cell_size), x, y, radius, cell_size)


def rfid_pf_location_error(seed, filter_class):
    """Mean location error after one 150-scan trace in the ``rfid_pf`` configuration."""
    world = WarehouseWorld(
        width=100.0,
        height=50.0,
        shelf_grid=(10, 5),
        n_objects=100,
        move_rate=0.0,
        flammable_fraction=0.3,
        weight_range=(30.0, 70.0),
        rng=1,
    )
    detection = noisy_detection_model()
    simulator = MobileReaderSimulator(
        world,
        detection=detection,
        lane_spacing=10.0,
        speed=8.0,
        scan_interval=0.5,
        read_capacity=40,
        rng=seed * 10 + 2,
    )
    # Gaussian emission draws no random numbers, so emitting nothing leaves
    # the filter's random stream as the workload's.
    operator = RFIDTransformOperator(
        world, detection=detection, n_particles=60, emit_mode="none", rng=seed * 10 + 3
    )
    operator.filter.__class__ = filter_class
    for scan in simulator.readings(150):
        list(operator.ingest(scan, scan.timestamp))
    return operator.mean_location_error()


def test_disc_candidates_hold_location_error_over_seeds():
    """The disc rule against the grid-cell rule, paired trace by trace.

    The one-sided 95% upper bound of the mean paired difference (disc
    minus cells) over traces 1-30 must stay within +0.25 ft, and every
    trace within the workload's 7.5 ft cap.
    """
    disc, cells = [], []
    for seed in range(1, 31):
        disc.append(rfid_pf_location_error(seed, FactorizedParticleFilter))
        cells.append(rfid_pf_location_error(seed, CellRuleFilter))
    differences = np.array(disc) - np.array(cells)
    n = differences.size
    upper = differences.mean() + stats.t.ppf(0.95, n - 1) * differences.std(ddof=1) / math.sqrt(n)
    assert upper <= 0.25, (differences.mean(), upper)
    assert max(disc) <= 7.5
