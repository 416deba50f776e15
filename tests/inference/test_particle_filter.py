"""Tests for the particle filter and its stream-speed optimisations."""

import copy

import numpy as np
import pytest

from repro.inference import (
    CompressionConfig,
    FactorizedParticleFilter,
    JointParticleFilter,
    ParticleFilter,
    segmented_systematic_resample,
    systematic_resample,
)
from repro.rfid import DetectionModel, DetectionObservation, build_object_model

BOUNDS = (0.0, 0.0, 50.0, 30.0)


def make_model(detection=None):
    return build_object_model(BOUNDS, detection=detection, walk_sigma=0.1, jump_rate=0.0)


def observe_from(x, y, true_position, detection, rng):
    """Simulate whether a reader at (x, y) detects an object at true_position."""
    distance = float(np.hypot(true_position[0] - x, true_position[1] - y))
    detected = rng.random() < detection.probability(distance)
    return DetectionObservation(reader_x=x, reader_y=y, detected=detected)


class TestParticleFilter:
    def test_prior_particles_cover_the_area(self, rng):
        pf = ParticleFilter(make_model(), n_particles=200, rng=rng)
        assert pf.particles.shape == (200, 2)
        assert pf.particles[:, 0].min() >= BOUNDS[0]
        assert pf.particles[:, 0].max() <= BOUNDS[2]

    def test_repeated_detections_concentrate_particles_near_truth(self, rng):
        detection = DetectionModel(midpoint=8.0, steepness=0.8, max_rate=0.95)
        pf = ParticleFilter(make_model(detection), n_particles=400, rng=rng)
        truth = np.array([20.0, 15.0])
        # Readings from several vantage points around the object.
        for reader_x, reader_y in [(15, 15), (25, 15), (20, 10), (20, 20), (18, 17), (22, 13)]:
            pf.predict(0.5)
            pf.update(observe_from(reader_x, reader_y, truth, detection, rng))
        error = np.linalg.norm(pf.estimate() - truth)
        assert error < 6.0
        assert float(np.max(pf.spread())) < 12.0

    def test_non_detections_push_particles_away(self, rng):
        detection = DetectionModel(midpoint=10.0, steepness=0.9, max_rate=0.95)
        pf = ParticleFilter(make_model(detection), n_particles=400, rng=rng)
        # Repeated confident misses from a corner reader: the object is
        # unlikely to be near that corner.
        for _ in range(6):
            pf.predict(0.5)
            pf.update(DetectionObservation(reader_x=0.0, reader_y=0.0, detected=False))
        assert np.linalg.norm(pf.estimate()) > 12.0

    def test_update_returns_evidence_and_handles_zero_likelihood(self, rng):
        pf = ParticleFilter(make_model(), n_particles=50, rng=rng)

        class ZeroObservation:
            pass

        # Patch a model whose likelihood is all zeros via a conflicting observation.
        evidence = pf.update(DetectionObservation(0.0, 0.0, detected=True))
        assert evidence >= 0.0
        # Weights stay a valid simplex even under harsh evidence.
        assert pf.weights.sum() == pytest.approx(1.0)

    def test_resample_to_specific_size(self, rng):
        pf = ParticleFilter(make_model(), n_particles=128, rng=rng)
        pf.set_particle_count(32)
        assert pf.n_particles == 32
        pf.set_particle_count(256)
        assert pf.n_particles == 256

    def test_marginal_and_posterior_gaussian(self, rng):
        pf = ParticleFilter(make_model(), n_particles=100, rng=rng)
        marginal = pf.marginal(0)
        assert marginal.n_particles == 100
        posterior = pf.posterior_gaussian()
        assert posterior.ndim == 2

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            ParticleFilter(make_model(), n_particles=1)
        pf = ParticleFilter(make_model(), n_particles=10, rng=rng)
        with pytest.raises(ValueError):
            pf.predict(-1.0)


class TestFactorizedParticleFilter:
    def make_filter(self, rng, **kwargs):
        fpf = FactorizedParticleFilter(n_particles=60, rng=rng, **kwargs)
        model = make_model()
        for i in range(5):
            fpf.add_variable(f"O{i}", model)
        return fpf

    def test_tracks_independent_variables(self, rng):
        fpf = self.make_filter(rng)
        assert len(fpf) == 5
        assert fpf.total_particles() == 5 * 60
        assert fpf.estimate("O0").shape == (2,)

    def test_duplicate_variable_rejected(self, rng):
        fpf = self.make_filter(rng)
        with pytest.raises(ValueError):
            fpf.add_variable("O0", make_model())
        with pytest.raises(ValueError, match="share"):
            fpf.add_variable("O9", make_model())  # another model

    def test_spatial_index_limits_candidates(self, rng):
        fpf = FactorizedParticleFilter(n_particles=40, use_spatial_index=True, rng=rng)
        model = make_model()
        for i in range(10):
            fpf.add_variable(f"O{i}", model)
        # Candidate list with a region is no larger than the full list.
        region = (10.0, 10.0, 5.0)
        assert len(fpf.candidates(region)) <= len(fpf.candidates(None))

    def test_step_updates_only_candidates(self, rng):
        fpf = self.make_filter(rng, use_spatial_index=False)
        processed = fpf.step(
            dt=0.5,
            observation_for=lambda var_id: DetectionObservation(5.0, 5.0, detected=False),
            region=None,
        )
        assert set(processed) == {f"O{i}" for i in range(5)}
        assert fpf.updates_performed == 5

    def test_compression_shrinks_stable_clouds(self, rng):
        detection = DetectionModel(midpoint=8.0, steepness=1.0, max_rate=0.95)
        config = CompressionConfig(
            stability_threshold=3.0, compressed_count=10, expansion_threshold=8.0
        )
        fpf = FactorizedParticleFilter(
            n_particles=120, compression=config, use_spatial_index=False, rng=rng
        )
        fpf.add_variable("O0", build_object_model(BOUNDS, detection=detection, walk_sigma=0.05, jump_rate=0.0))
        truth = np.array([20.0, 15.0])
        for reader in [(15, 15), (25, 15), (20, 10), (20, 20), (18, 16), (22, 14), (19, 15), (21, 15)]:
            fpf.step(
                dt=0.2,
                observation_for=lambda _vid: observe_from(reader[0], reader[1], truth, detection, rng),
                region=None,
            )
        assert fpf.sizes[0] <= 120
        # If the cloud stabilised it must have been compressed to 10.
        if float(np.sqrt(fpf.variances[0]).max()) < 3.0:
            assert fpf.sizes[0] == 10

    def test_compression_config_validation(self):
        with pytest.raises(ValueError):
            CompressionConfig(stability_threshold=0.0)
        with pytest.raises(ValueError):
            CompressionConfig(compressed_count=1)
        with pytest.raises(ValueError):
            CompressionConfig(stability_threshold=2.0, expansion_threshold=1.0)


def reference_step(filters, observation_for, compression=None, full_count=60):
    """The per-object loop the batched kernel replaces (``dt = 0``, no index).

    Returns the number of filter updates it performed.
    """
    updates = 0
    for var_id, pf in filters.items():
        observation = observation_for(var_id)
        if observation is not None:
            pf.update(observation)
            updates += 1
        if compression is None:
            continue
        spread = float(np.max(pf.spread()))
        n = pf.n_particles
        if spread < compression.stability_threshold and n > compression.compressed_count:
            pf.resample(size=compression.compressed_count)
        elif spread > compression.expansion_threshold and n < full_count:
            pf.resample(size=full_count)
    return updates


def reference_filters(fpf, generator):
    """Per-object :class:`ParticleFilter` copies of the arena's clouds.

    They share one copy of ``generator`` (the arena's), in its current state.
    """
    shared = copy.deepcopy(generator)
    filters = {}
    for var_id in fpf.variables():
        pf = ParticleFilter(
            make_model(), n_particles=2, resample_fraction=fpf.resample_fraction, rng=0
        )
        pf.particles, pf.weights = fpf.cloud(var_id)
        pf._rng = shared
        filters[var_id] = pf
    return filters


def shrink(fpf, rows, size=25):
    """Make each cloud of ``rows`` the first ``size`` particles of its row, uniformly weighted."""
    fpf.sizes[rows] = size
    fpf.weights[rows, :size] = 1.0 / size


class TestBatchedStep:
    """The scan-at-a-time arena kernel against per-object :class:`ParticleFilter` calls."""

    def make_filter(self, generator, n_objects=8, **kwargs):
        fpf = FactorizedParticleFilter(n_particles=60, rng=generator, **kwargs)
        model = make_model()
        for i in range(n_objects):
            fpf.add_variable(f"O{i}", model)
        return fpf

    def test_ragged_step_matches_per_object_update(self):
        # No resampling (tiny ESS fraction), so weights and estimates are
        # deterministic functions of the observations.
        generator = np.random.default_rng(3)
        fpf = self.make_filter(generator, resample_fraction=1e-9)
        shrink(fpf, slice(0, None, 3))  # compressed clouds
        weights_rng = np.random.default_rng(4)
        for row, size in enumerate(fpf.sizes.tolist()):
            fpf.weights[row, :size] = weights_rng.dirichlet(np.ones(size))
        assert set(fpf.sizes.tolist()) == {25, 60}
        reference = reference_filters(fpf, generator)

        near_hit = DetectionObservation(20.0, 15.0, detected=True)
        near_miss = DetectionObservation(20.0, 15.0, detected=False)
        # Every particle is ~14 000 ft from this reader: a detection has
        # likelihood exactly zero, so that cloud must reset to uniform.
        impossible = DetectionObservation(1e4, 1e4, detected=True)
        plan = {
            "O0": near_hit, "O1": near_miss, "O2": near_hit, "O3": impossible,
            "O4": near_miss, "O5": None, "O6": near_hit, "O7": near_miss,
        }
        with np.errstate(over="ignore"):
            processed = fpf.step(0.0, plan.get, region=None)
            updates = reference_step(reference, plan.get)

        assert processed == list(plan)
        assert fpf.updates_performed == updates == 7
        for var_id, ref in reference.items():
            particles, weights = fpf.cloud(var_id)
            np.testing.assert_array_equal(particles, ref.particles)
            np.testing.assert_allclose(weights, ref.weights, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fpf.estimate(var_id), ref.estimate(), rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                np.sqrt(fpf.variances[fpf.rows([var_id])[0]]), ref.spread(), rtol=0, atol=1e-12
            )
            # The range query finds each object at its estimate (the arena's
            # and the reference's agree to 1e-12, not bitwise).
            x, y = ref.estimate()
            assert var_id in fpf.candidates((x, y, 1e-6))
        assert fpf.cloud("O3")[0].shape == (25, 2)
        np.testing.assert_array_equal(fpf.cloud("O3")[1], np.full(25, 1.0 / 25))
        np.testing.assert_array_equal(fpf.cloud("O5")[1], reference["O5"].weights)

    def test_ess_resampling_matches_the_reference(self):
        # One shared observation keeps the kernel's sets in registration
        # order, so its uniform offsets come off the generator in the same
        # order as the per-object loop's and the clouds agree exactly.
        generator = np.random.default_rng(7)
        fpf = self.make_filter(generator, resample_fraction=1.0, use_spatial_index=False)
        shrink(fpf, slice(0, None, 2))
        reference = reference_filters(fpf, generator)
        hit = DetectionObservation(20.0, 15.0, detected=True)

        fpf.step(0.0, lambda _var_id: hit)
        reference_step(reference, lambda _var_id: hit)

        for var_id, ref in reference.items():
            particles, weights = fpf.cloud(var_id)
            np.testing.assert_array_equal(particles, ref.particles)
            np.testing.assert_array_equal(weights, ref.weights)
            assert np.all(weights == 1.0 / weights.size)

    def test_compression_matches_the_reference(self):
        # As above, with ESS resampling off so that the only draws are the
        # compression decisions' (shrink the tight clouds, expand the
        # diffuse compressed ones).
        config = CompressionConfig(
            stability_threshold=4.0, compressed_count=25, expansion_threshold=9.0
        )
        generator = np.random.default_rng(5)
        fpf = self.make_filter(
            generator, compression=config, use_spatial_index=False, resample_fraction=1e-9
        )
        shrink(fpf, slice(0, None, 2))  # diffuse but compressed: must expand
        for row in range(1, len(fpf), 2):
            fpf.particles[row] = np.random.default_rng(row).normal([20.0, 15.0], 0.5, size=(60, 2))
        reference = reference_filters(fpf, generator)
        # A miss from a reader far outside the area barely moves any weight.
        far_miss = DetectionObservation(200.0, 200.0, detected=False)

        fpf.step(0.0, lambda _var_id: far_miss)
        reference_step(reference, lambda _var_id: far_miss, compression=config)

        for var_id, ref in reference.items():
            particles, weights = fpf.cloud(var_id)
            np.testing.assert_array_equal(particles, ref.particles)
            np.testing.assert_allclose(weights, ref.weights, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fpf.estimate(var_id), ref.estimate(), rtol=0, atol=1e-12)
        assert fpf.sizes.tolist() == [60, 25] * 4

    def test_set_particle_count_widens_the_arena_like_per_object_calls(self):
        generator = np.random.default_rng(9)
        fpf = self.make_filter(generator)
        shrink(fpf, slice(1, None, 3))
        reference = reference_filters(fpf, generator)

        # The budget is a ceiling: the clouds at the old budget are redrawn
        # to the new one, and the compressed clouds keep their size.
        fpf.set_particle_count(90)
        for ref in reference.values():
            if ref.n_particles == 60:
                ref.set_particle_count(90)

        assert fpf.particles.shape[1] == 90 and fpf.n_particles == 90
        assert fpf.sizes.tolist() == [90, 25, 90] * 2 + [90, 25]
        for var_id, ref in reference.items():
            particles, weights = fpf.cloud(var_id)
            np.testing.assert_array_equal(particles, ref.particles)
            np.testing.assert_array_equal(weights, ref.weights)
            if ref.n_particles == 90:  # shrink() left the others' moments as they were
                np.testing.assert_allclose(fpf.estimate(var_id), ref.estimate(), rtol=0, atol=1e-12)
        fpf.set_particle_count(30)
        assert fpf.particles.shape[1] == 90 and set(fpf.sizes.tolist()) == {25, 30}
        # A budget below a compressed cloud redraws it too.
        fpf.set_particle_count(20)
        assert set(fpf.sizes.tolist()) == {20}

    def test_step_observed_equals_step_with_the_same_observations(self):
        hit = DetectionObservation(20.0, 15.0, detected=True)
        miss = DetectionObservation(20.0, 15.0, detected=False)
        detected = {"O6": hit, "O2": hit, "unknown": hit}
        region = (20.0, 15.0, 6.0)
        by_callable = self.make_filter(np.random.default_rng(2), compression=CompressionConfig())
        by_mapping = self.make_filter(np.random.default_rng(2), compression=CompressionConfig())
        for _ in range(3):
            processed = by_callable.step(
                0.5, lambda v: detected.get(v, miss), region=region, include=detected
            )
            rows = by_mapping.step_observed(0.5, detected, miss, region=region)
            assert processed == [by_mapping.variables()[row] for row in rows]
            assert {"O2", "O6"} <= set(processed)
        for name in ("particles", "weights", "sizes", "estimates", "variances"):
            np.testing.assert_array_equal(getattr(by_mapping, name), getattr(by_callable, name))

    def test_segmented_resample_equals_systematic_row_by_row(self):
        rng = np.random.default_rng(8)
        sizes = np.array([60, 25, 60, 7, 25, 2, 60])
        out_sizes = np.array([60, 25, 25, 60, 3, 9, 60])
        sets = [rng.dirichlet(np.full(n, 0.3)) for n in sizes]
        sets[2][:10] = 0.0  # leading zero weights are never drawn
        sets[2] /= sets[2].sum()
        offsets = np.array([0.25, 0.0, 0.5, 0.999999, 0.1, 0.7, 0.0])

        class FixedOffset:
            def __init__(self, value):
                self.value = value

            def random(self):
                return self.value

        drawn = segmented_systematic_resample(np.concatenate(sets), sizes, out_sizes, offsets)
        start = 0
        pieces = np.split(drawn, np.cumsum(out_sizes)[:-1])
        for weights, n, m, u, piece in zip(sets, sizes, out_sizes, offsets, pieces):
            expected = systematic_resample(weights, m, FixedOffset(u))
            np.testing.assert_array_equal(piece - start, expected)
            start += n
        with pytest.raises(ValueError):
            segmented_systematic_resample(np.full(4, 0.5), [2, 2], [2, 0], [0.1, 0.2])

    def test_include_adds_far_variables_and_negative_dt_rejected(self):
        fpf = self.make_filter(np.random.default_rng(6))
        far = [v for v in fpf.variables() if v not in fpf.candidates((0.0, 0.0, 1.0))]
        processed = fpf.step(
            0.5, lambda _v: None, region=(0.0, 0.0, 1.0), include=far[:1] + ["unknown"]
        )
        assert far[0] in processed and "unknown" not in processed
        assert fpf.updates_performed == 0
        with pytest.raises(ValueError):
            fpf.step(-1.0, lambda _v: None)


class TestJointParticleFilter:
    def test_joint_filter_tracks_all_variables_per_event(self, rng):
        jpf = JointParticleFilter(n_particles=100, rng=rng)
        model = make_model()
        for i in range(3):
            jpf.add_variable(f"O{i}", model)
        processed = jpf.step(
            dt=0.5,
            observation_for=lambda var_id: DetectionObservation(5.0, 5.0, detected=False),
        )
        assert processed == ["O0", "O1", "O2"]
        assert jpf.estimate("O1").shape == (2,)

    def test_factorized_beats_joint_accuracy_with_equal_budget(self, rng):
        # With the same total particle budget, the factorised filter assigns
        # all of it to each variable's own space and localises better.
        detection = DetectionModel(midpoint=8.0, steepness=0.8, max_rate=0.9)
        model = build_object_model(BOUNDS, detection=detection, walk_sigma=0.05, jump_rate=0.0)
        truths = {f"O{i}": np.array([10.0 + 10.0 * i, 15.0]) for i in range(3)}

        def run(filter_obj):
            reader_points = [(8, 15), (18, 15), (28, 15), (12, 12), (22, 18), (30, 14)] * 3
            for rx, ry in reader_points:
                filter_obj.step(
                    dt=0.2,
                    observation_for=lambda vid: observe_from(rx, ry, truths[vid], detection, rng),
                    region=None,
                )
            return np.mean(
                [np.linalg.norm(filter_obj.estimate(vid) - truths[vid]) for vid in truths]
            )

        factorized = FactorizedParticleFilter(n_particles=90, use_spatial_index=False, rng=rng)
        joint = JointParticleFilter(n_particles=90, rng=np.random.default_rng(999))
        for vid in truths:
            factorized.add_variable(vid, model)
            joint.add_variable(vid, model)
        assert run(factorized) <= run(joint) + 2.0
