"""Tests for the batch wire codec and stream-volume accounting."""

import struct

import numpy as np
import pytest

from repro.distributions import (
    Gaussian,
    GaussianMixture,
    HistogramDistribution,
    MultivariateGaussian,
    ParticleDistribution,
    Uniform,
)
from repro.recovery.state import StateError, decode_state, encode_state
from repro.streams import StreamTuple, TupleBatch, decode_batch, encode_batch_wire
from repro.streams.serialization import wire_format

DISTRIBUTIONS = [
    Gaussian(2.5, 0.75),
    Uniform(-1.0, 4.0),
    GaussianMixture([0.3, 0.7], [0.0, 5.0], [1.0, 2.0]),
    ParticleDistribution(np.linspace(0, 1, 50), np.full(50, 0.02)),
    HistogramDistribution([0.0, 1.0, 2.0, 3.0], [0.2, 0.5, 0.3]),
]


def roundtrip(rows):
    return decode_batch(encode_batch_wire(TupleBatch(rows))).to_tuples()


def encoded(**uncertain) -> bytes:
    """The payload of a one-row batch carrying ``uncertain``."""
    return encode_batch_wire(TupleBatch([StreamTuple(timestamp=0.0, uncertain=uncertain)]))


def mixed_rows():
    """Rows of every family, lineage sets, int tuples and a layout change."""
    rows = [
        StreamTuple(
            timestamp=float(i),
            values={"tag": f"O{i}", "area": (i, i + 1), "hot": i % 2 == 0},
            uncertain={"x": dist},
            lineage=frozenset({i, 100 + i}),
        )
        for i, dist in enumerate(DISTRIBUTIONS)
    ]
    rows.append(StreamTuple(timestamp=9.0, values={"count": 3}, uncertain={"x": Gaussian(1, 2)}))
    return rows


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
class TestDistributionRoundTrip:
    def test_roundtrip_preserves_type_and_moments(self, dist):
        (decoded,) = roundtrip([StreamTuple(timestamp=0.0, uncertain={"x": dist})])
        decoded = decoded.distribution("x")
        assert type(decoded) is type(dist)
        assert decoded.mean() == pytest.approx(dist.mean(), rel=1e-9)
        assert decoded.variance() == pytest.approx(dist.variance(), rel=1e-9)

    def test_unknown_type_rejected(self, dist):
        with pytest.raises(TypeError):
            encoded(x=dist, y=MultivariateGaussian([1.0, 2.0], np.eye(2)))


class TestTupleRoundTrip:
    def make_tuple(self):
        return StreamTuple(
            timestamp=12.5,
            values={"tag_id": "O0042", "count": 3, "ratio": 0.75, "flag": True, "area": (2, 5)},
            uncertain={"x": Gaussian(10.0, 1.0), "w": GaussianMixture([0.5, 0.5], [0, 1], [1, 1])},
            lineage=frozenset({11, 22, 33}),
        )

    def test_roundtrip_preserves_everything(self):
        original = self.make_tuple()
        (decoded,) = roundtrip([original])
        assert decoded.timestamp == original.timestamp
        assert decoded.tuple_id == original.tuple_id
        assert decoded.values == original.values
        assert decoded.lineage == original.lineage
        assert decoded.distribution("x").mu == pytest.approx(10.0)
        assert decoded.distribution("w").n_components == 2

    def test_unencodable_values_rejected(self):
        for value in (None, ("a", "b"), object()):
            with pytest.raises(TypeError):
                encode_batch_wire(TupleBatch([StreamTuple(timestamp=0.0, values={"v": value})]))


class TestStreamVolumeClaim:
    def test_particle_tuples_are_orders_of_magnitude_larger(self):
        """Section 4.3: shipping particles inflates the stream volume ~100x."""
        particles = ParticleDistribution(np.random.default_rng(0).normal(size=200))
        gaussian = Gaussian(particles.mean(), max(particles.variance(), 1e-9) ** 0.5)

        def size(dist):
            row = StreamTuple(timestamp=0.0, values={"tag_id": "O1"}, uncertain={"x": dist})
            return len(encode_batch_wire(TupleBatch([row])))

        assert size(particles) / size(gaussian) > 30.0


class TestOneFormat:
    def test_every_payload_is_columnar(self):
        for rows in ([], mixed_rows(), mixed_rows()[:1]):
            assert wire_format(encode_batch_wire(TupleBatch(rows))) == "columnar"

    @pytest.mark.parametrize("magic", [b"TB1\x00", b"TBC1", b"RST1", b"\x00\x00\x00\x00"])
    def test_other_magics_rejected(self, magic):
        payload = magic + encode_batch_wire(TupleBatch(mixed_rows()))[4:]
        with pytest.raises(ValueError):
            decode_batch(payload)
        with pytest.raises(ValueError):
            wire_format(payload)

    def test_trace_magic_in_a_value_is_not_a_trace(self):
        """Regression: a tag ending the payload with b"TRB1"... was sniffed as a trace."""
        row = StreamTuple(timestamp=1.0, values={"tag": "TRB1" + "a" * 16})
        decoded = decode_batch(encode_batch_wire(TupleBatch([row])))
        assert decoded.trace_id is None
        assert decoded[0].values == row.values


def corrupt_first_sigma(value: float) -> bytes:
    """An all-Gaussian batch whose first sigma is overwritten with ``value``."""
    rows = [StreamTuple(timestamp=0.0, uncertain={"w": Gaussian(1.5, 0.5)})] * 3
    payload = bytearray(encode_batch_wire(TupleBatch(rows)))
    sigma = struct.pack("<d", 0.5)
    at = payload.index(sigma)
    payload[at : at + 8] = struct.pack("<d", value)
    return bytes(payload)


class TestValidation:
    """Decoded distributions are checked like their constructors check them."""

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, float("nan"), float("inf")])
    def test_corrupt_gaussian_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            decode_batch(corrupt_first_sigma(sigma))

    def test_corrupt_gaussian_mean_rejected(self):
        payload = bytearray(encoded(w=Gaussian(1.5, 0.5)))
        at = payload.index(struct.pack("<d", 1.5))
        payload[at : at + 8] = struct.pack("<d", float("nan"))
        with pytest.raises(ValueError, match="mean must be finite"):
            decode_batch(bytes(payload))

    @pytest.mark.parametrize(
        "position, value, message",
        [
            (0, -0.5, "non-negative"),
            (0, float("nan"), "non-negative"),
            (2, float("inf"), "means must be finite"),
            (4, 0.0, "sigmas must be positive"),
        ],
    )
    def test_corrupt_mixture_rejected(self, position, value, message):
        mixture = GaussianMixture([0.25, 0.75], [1.0, 2.0], [3.0, 4.0])
        payload = bytearray(encoded(m=mixture))
        block = np.concatenate([mixture.weights, mixture.means, mixture.sigmas]).tobytes()
        at = payload.index(block) + 8 * position
        payload[at : at + 8] = struct.pack("<d", value)
        with pytest.raises(ValueError, match=message):
            decode_batch(bytes(payload))

    def test_all_zero_mixture_weights_rejected(self):
        mixture = GaussianMixture([0.5, 0.5], [1.0, 2.0], [3.0, 4.0])
        payload = encoded(m=mixture).replace(mixture.weights.tobytes(), bytes(16))
        with pytest.raises(ValueError, match="weights must not all be zero"):
            decode_batch(payload)

    def test_decoded_mixture_equals_its_constructor(self):
        mixture = GaussianMixture([1.0, 2.0, 7.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        (row,) = roundtrip([StreamTuple(timestamp=0.0, uncertain={"m": mixture})])
        rebuilt = GaussianMixture(mixture.weights, mixture.means, mixture.sigmas)
        decoded = row.distribution("m")
        for field in ("weights", "means", "sigmas"):
            assert getattr(decoded, field).tobytes() == getattr(rebuilt, field).tobytes()

    def test_other_families_reject_through_their_constructors(self):
        bounds = struct.pack("<dd", 1.0, 2.0)  # the low and the high array of one row
        swapped = encoded(u=Uniform(1.0, 2.0)).replace(bounds, struct.pack("<dd", 2.0, 1.0))
        with pytest.raises(ValueError, match="high > low"):
            decode_batch(swapped)

    @pytest.mark.parametrize(
        "dist, field",
        [
            (ParticleDistribution([1.0, 2.0], [0.25, 0.75]), "weights"),
            (HistogramDistribution([0.0, 1.0, 2.5], [0.5, 0.5]), "edges"),
        ],
    )
    def test_non_finite_particle_weights_and_histogram_edges_rejected(self, dist, field):
        block = getattr(dist, field).tobytes()
        poisoned = getattr(dist, field).copy()
        poisoned[-1] = float("inf") if field == "edges" else float("nan")
        payload = encoded(d=dist).replace(block, poisoned.tobytes())
        with pytest.raises(ValueError, match="must be finite"):
            decode_batch(payload)


class TestTruncation:
    """Every strict prefix of a valid payload is malformed and says so."""

    def payloads(self):
        traced = TupleBatch(mixed_rows())
        traced.trace_id, traced.t_ingest = 7, 1.5
        gaussian = [
            StreamTuple(timestamp=float(i), values={"k": i}, uncertain={"g": Gaussian(i, 1.0)})
            for i in range(4)
        ]
        return [encode_batch_wire(batch) for batch in (traced, TupleBatch(gaussian), TupleBatch())]

    def test_batch_prefixes_raise_value_error(self):
        for payload in self.payloads():
            decode_batch(payload)
            for length in range(len(payload)):
                with pytest.raises(ValueError):
                    decode_batch(payload[:length])

    def test_state_prefixes_raise_state_error(self):
        state = {
            "windows": mixed_rows(),
            "watermark": float("inf"),
            "pending": [{"rows": mixed_rows()[:2]}],
        }
        payload = encode_state(state)
        assert len(decode_state(payload)["windows"]) == len(mixed_rows())
        for length in range(len(payload)):
            with pytest.raises(StateError):
                decode_state(payload[:length])
