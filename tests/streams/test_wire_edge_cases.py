"""Wire-format edge cases: the batch codec must round-trip exactly.

The network layer ships every tuple through
:mod:`repro.streams.serialization`, so the codec must survive the
awkward payloads real streams produce: empty batches, NaN/±inf moments
in value columns, degenerate mixtures, and frames well past 64 KiB.
"""

import math

import numpy as np
import pytest

from repro.distributions import (
    DistributionError,
    Gaussian,
    GaussianMixture,
    HistogramDistribution,
    ParticleDistribution,
    Uniform,
)
from repro.streams import StreamTuple
from repro.streams.batch import TupleBatch
from repro.streams.serialization import decode_batch, encode_batch_wire, wire_format


def roundtrip(batch):
    payload = encode_batch_wire(batch)
    assert wire_format(payload) == "columnar"
    return decode_batch(payload).to_tuples()


def assert_exact(expected, got):
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert a.timestamp == b.timestamp or (
            math.isnan(a.timestamp) and math.isnan(b.timestamp)
        )
        assert a.tuple_id == b.tuple_id
        assert a.lineage == b.lineage
        assert set(a.values) == set(b.values)
        for key, value in a.values.items():
            other = b.values[key]
            if isinstance(value, float) and math.isnan(value):
                assert isinstance(other, float) and math.isnan(other)
            else:
                assert other == value and type(other) is type(value)
        assert set(a.uncertain) == set(b.uncertain)


class TestEmptyBatch:
    def test_wire_round_trip(self):
        assert roundtrip(TupleBatch([])) == []

    def test_empty_batch_is_columnar(self):
        # Zero runs: the header alone.
        assert wire_format(encode_batch_wire(TupleBatch([]))) == "columnar"


class TestNonFiniteMoments:
    """NaN/±inf in float value columns (e.g. failed derives, sentinel means)."""

    def _batch(self):
        specials = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 1e308]
        rows = [
            StreamTuple(
                timestamp=float(i),
                values={"m": specials[i % len(specials)], "tag": f"T{i}"},
                uncertain={"g": Gaussian(1.0 + i, 2.0)},
            )
            for i in range(12)
        ]
        return TupleBatch(rows)

    def test_round_trip_is_exact(self):
        batch = self._batch()
        assert_exact(batch.to_tuples(), roundtrip(batch))

    def test_derived_rows_round_trip_is_exact(self):
        # Lineage sets take a lineage section in the same format.
        rows = [row.derive() for row in self._batch()]
        assert_exact(rows, roundtrip(TupleBatch(rows)))

    def test_non_finite_timestamps_round_trip(self):
        rows = [
            StreamTuple(timestamp=float("inf"), values={"v": 1.0}),
            StreamTuple(timestamp=float("-inf"), values={"v": 2.0}),
        ]
        assert_exact(rows, roundtrip(TupleBatch(rows)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf moments in numpy dot
    def test_particles_with_infinite_values_round_trip(self):
        particles = ParticleDistribution(
            np.array([1.0, math.inf, -math.inf, 2.5]),
            np.array([0.25, 0.25, 0.25, 0.25]),
        )
        row = StreamTuple(timestamp=0.0, uncertain={"p": particles})
        (got,) = roundtrip(TupleBatch([row]))
        np.testing.assert_array_equal(got.distribution("p").values, particles.values)
        np.testing.assert_array_equal(got.distribution("p").weights, particles.weights)


class TestDegenerateMixtures:
    def test_single_component_mixture_round_trips(self):
        mixture = GaussianMixture([1.0], [2.5], [0.75])
        row = StreamTuple(timestamp=1.0, uncertain={"m": mixture})
        (got,) = roundtrip(TupleBatch([row]))
        decoded = got.distribution("m")
        assert decoded.n_components == 1
        np.testing.assert_allclose(decoded.weights, mixture.weights)
        np.testing.assert_allclose(decoded.means, mixture.means)
        np.testing.assert_allclose(decoded.sigmas, mixture.sigmas)

    def test_zero_component_mixture_is_unrepresentable(self):
        """The wire invariant: a mixture always has >= 1 component.

        The constructor enforces it, so no encoder can ever produce a
        zero-component payload — decoders may rely on ``count >= 1``.
        """
        with pytest.raises(DistributionError):
            GaussianMixture([], [], [])

    def test_mixture_batches_are_columnar(self):
        mixture = GaussianMixture([0.5, 0.5], [0.0, 4.0], [1.0, 2.0])
        rows = [StreamTuple(timestamp=0.0, uncertain={"m": mixture})] * 3
        (decoded, *_) = roundtrip(TupleBatch(rows))
        np.testing.assert_array_equal(decoded.distribution("m").means, mixture.means)


class TestLargeFrames:
    """Payloads past the 64 KiB mark (u16 temptations, length arithmetic)."""

    def test_columnar_frame_over_64kib(self):
        rows = [
            StreamTuple(
                timestamp=float(i),
                values={"tag": f"tag-{i:06d}", "k": i},
                uncertain={"a": Gaussian(float(i), 1.0), "b": Gaussian(-float(i), 2.0)},
            )
            for i in range(3000)
        ]
        payload = encode_batch_wire(TupleBatch(rows))
        assert len(payload) > (64 << 10)
        assert_exact(rows, decode_batch(payload).to_tuples())

    def test_frame_over_64kib_with_mixed_payloads(self):
        rng = np.random.default_rng(5)
        rows = []
        for i in range(400):
            uncertain = {
                "m": GaussianMixture(
                    rng.uniform(0.1, 1.0, size=3),
                    rng.uniform(-5.0, 5.0, size=3),
                    rng.uniform(0.5, 2.0, size=3),
                ),
                "h": HistogramDistribution(
                    np.linspace(0.0, 1.0, 33), np.full(32, 1.0)
                ),
                "u": Uniform(0.0, float(i + 1)),
            }
            rows.append(
                StreamTuple(
                    timestamp=float(i),
                    values={"blob": "x" * 200, "i": i},
                    uncertain=uncertain,
                    lineage=frozenset(range(i, i + 5)),
                )
            )
        payload = encode_batch_wire(TupleBatch(rows))
        assert wire_format(payload) == "columnar" and len(payload) > (64 << 10)
        got = decode_batch(payload).to_tuples()
        assert_exact(rows, got)
        for a, b in zip(rows, got):
            assert a.lineage == b.lineage

    def test_single_string_value_over_64kib(self):
        row = StreamTuple(timestamp=0.0, values={"doc": "y" * (70 << 10)})
        (got,) = roundtrip(TupleBatch([row]))
        assert got.value("doc") == row.value("doc")


class TestDecodeInputTypes:
    """The net layer hands decode_batch slices of receive buffers."""

    def _payload(self):
        rows = [
            StreamTuple(timestamp=1.0, values={"k": 1}, uncertain={"g": Gaussian(0.0, 1.0)})
        ]
        return encode_batch_wire(TupleBatch(rows)), rows

    def test_bytearray_and_memoryview_decode(self):
        payload, rows = self._payload()
        for view in (bytearray(payload), memoryview(payload)):
            assert_exact(rows, decode_batch(view).to_tuples())

    def test_wire_format_classifies_views(self):
        payload, _ = self._payload()
        assert wire_format(memoryview(payload)) == "columnar"
        with pytest.raises(ValueError):
            wire_format(b"nope-not-a-batch")
