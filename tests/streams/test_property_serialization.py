"""Property-based round-trip tests for the batch wire codec."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    Gaussian,
    GaussianMixture,
    HistogramDistribution,
    ParticleDistribution,
    Uniform,
)
from repro.streams import StreamTuple, TupleBatch, decode_batch, encode_batch_wire
from repro.streams.serialization import wire_format

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False)
any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def gaussians(draw):
    return Gaussian(draw(finite), draw(positive))


@st.composite
def uniforms(draw):
    low = draw(finite)
    return Uniform(low, low + draw(positive))


@st.composite
def mixtures(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    weights = [draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(k)]
    means = [draw(finite) for _ in range(k)]
    return GaussianMixture(weights, means, [draw(positive) for _ in range(k)])


@st.composite
def particles(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return ParticleDistribution([draw(finite) for _ in range(n)])


@st.composite
def histograms(draw):
    bins = draw(st.integers(min_value=1, max_value=8))
    low = draw(finite)
    edges = low + np.cumsum([0.0] + [draw(positive) for _ in range(bins)])
    return HistogramDistribution(edges, [draw(positive) for _ in range(bins)])


distributions = st.one_of(gaussians(), uniforms(), mixtures(), particles(), histograms())

# Few names and kinds, so rows often share a layout and often differ
# in one value's kind (a bool next to an int, a float next to np.float64).
int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
values = st.one_of(
    int64,
    st.booleans(),
    any_float,
    any_float.map(np.float64),
    st.text(max_size=12),
    st.tuples(int64, st.integers(min_value=0, max_value=9)),
    st.lists(st.integers(min_value=0, max_value=99), max_size=3).map(tuple),
)


@st.composite
def stream_tuples(draw):
    names = draw(st.lists(st.sampled_from(["a", "b", "área"]), unique=True, max_size=3))
    uncertain_names = draw(st.lists(st.sampled_from(["u", "w"]), unique=True, max_size=2))
    lineage = draw(st.sets(st.integers(min_value=1, max_value=10**6), max_size=4))
    return StreamTuple(
        timestamp=draw(any_float),
        values={name: draw(values) for name in names},
        uncertain={name: draw(distributions) for name in uncertain_names},
        lineage=frozenset(lineage),
    )


@st.composite
def batches(draw):
    """Batches of one repeated layout, or of freely mixed rows."""
    if draw(st.booleans()):
        template = draw(stream_tuples())
        rows = [
            StreamTuple(
                timestamp=draw(any_float),
                values=template.values,
                uncertain={name: draw(distributions) for name in template.uncertain},
            )
            for _ in range(draw(st.integers(min_value=1, max_value=6)))
        ]
    else:
        rows = draw(st.lists(stream_tuples(), max_size=8))
    batch = TupleBatch(rows)
    if draw(st.booleans()):
        batch.trace_id, batch.t_ingest = draw(int64), draw(finite)
    return batch


def same_float(a, b):
    return type(a) is type(b) and (a == b or (math.isnan(a) and math.isnan(b)))


def same_value(a, b):
    if isinstance(a, float):
        return same_float(a, b)
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(same_value, a, b))
    return type(a) is type(b) and a == b


def rebuilt(dist):
    """What the distribution's constructor builds from its own parameters."""
    if isinstance(dist, GaussianMixture):
        return GaussianMixture(dist.weights, dist.means, dist.sigmas)
    if isinstance(dist, ParticleDistribution):
        return ParticleDistribution(dist.values, dist.weights)
    if isinstance(dist, HistogramDistribution):
        return HistogramDistribution(dist.edges, dist.densities)
    return dist


FIELDS = {
    Gaussian: ("mu", "sigma"),
    Uniform: ("low", "high"),
    GaussianMixture: ("weights", "means", "sigmas"),
    ParticleDistribution: ("values", "weights"),
    HistogramDistribution: ("edges", "densities"),
}


def parameters(dist):
    """Every parameter as raw float64 bytes (bitwise comparison)."""
    return [np.asarray(getattr(dist, field), dtype=float).tobytes() for field in FIELDS[type(dist)]]


@given(batch=batches())
@settings(max_examples=150, deadline=None)
def test_batch_roundtrip_is_exact(batch):
    payload = encode_batch_wire(batch)
    assert wire_format(payload) == "columnar"
    decoded = decode_batch(payload)
    assert decoded.trace_id == batch.trace_id
    if batch.trace_id is not None:
        assert decoded.t_ingest == batch.t_ingest
    assert len(decoded) == len(batch)
    for item, got in zip(batch, decoded):
        assert same_float(float(item.timestamp), got.timestamp)
        assert got.tuple_id == item.tuple_id
        assert got.lineage == item.lineage
        # A run shares its first row's attribute order; the sets match.
        assert set(got.values) == set(item.values)
        for name, value in item.values.items():
            assert same_value(value, got.values[name]), (value, got.values[name])
        assert set(got.uncertain) == set(item.uncertain)
        for name, dist in item.uncertain.items():
            decoded_dist = got.distribution(name)
            assert type(decoded_dist) is type(dist)
            # Bitwise equal to what the constructor builds from the
            # shipped parameters: weights are re-normalised on decode
            # exactly as the constructor normalises them.
            assert parameters(decoded_dist) == parameters(rebuilt(dist))
