"""Tests for the columnar TupleBatch container and batch operator hooks."""

import numpy as np
import pytest

from repro.distributions import Gaussian, GaussianMixture, MultivariateGaussian, Uniform
from repro.streams import (
    CollectSink,
    Filter,
    StreamTuple,
    TupleBatch,
    decode_batch,
    encode_batch_wire,
)
from repro.streams.operators.base import FunctionOperator, PassThroughOperator


def make_gaussian_tuples(n, attribute="value"):
    return [
        StreamTuple(
            timestamp=float(i),
            values={"i": i},
            uncertain={attribute: Gaussian(float(i) + 1.0, 0.5 + i * 0.1)},
        )
        for i in range(n)
    ]


class TestTupleBatchContainer:
    def test_roundtrip_preserves_rows_and_order(self):
        rows = make_gaussian_tuples(5)
        batch = TupleBatch.from_tuples(rows)
        assert len(batch) == 5
        assert batch.to_tuples() == rows
        assert [t.value("i") for t in batch] == [0, 1, 2, 3, 4]
        assert batch[2] is rows[2]

    def test_slicing_returns_batches(self):
        batch = TupleBatch(make_gaussian_tuples(6))
        head = batch[:2]
        assert isinstance(head, TupleBatch)
        assert len(head) == 2

    def test_chunks_cover_all_rows(self):
        batch = TupleBatch(make_gaussian_tuples(7))
        chunks = list(batch.chunks(3))
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert TupleBatch.concat(chunks).to_tuples() == batch.to_tuples()

    def test_chunks_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            list(TupleBatch(make_gaussian_tuples(2)).chunks(0))

    def test_select_applies_boolean_mask(self):
        batch = TupleBatch(make_gaussian_tuples(4))
        kept = batch.select([True, False, False, True])
        assert [t.value("i") for t in kept] == [0, 3]

    def test_select_rejects_wrong_length_mask(self):
        with pytest.raises(ValueError):
            TupleBatch(make_gaussian_tuples(3)).select([True])


class TestColumnarViews:
    def test_timestamps_column(self):
        batch = TupleBatch(make_gaussian_tuples(4))
        ts = batch.timestamps()
        assert ts.dtype == np.float64
        np.testing.assert_array_equal(ts, [0.0, 1.0, 2.0, 3.0])
        assert batch.timestamps() is ts  # cached

    def test_value_and_numeric_columns(self):
        batch = TupleBatch(make_gaussian_tuples(3))
        assert list(batch.value_column("i")) == [0, 1, 2]
        numeric = batch.numeric_column("i")
        assert numeric.dtype == np.float64
        np.testing.assert_array_equal(numeric, [0.0, 1.0, 2.0])

    def test_gaussian_params_fast_path(self):
        batch = TupleBatch(make_gaussian_tuples(3))
        params = batch.gaussian_params("value")
        assert params is not None
        mu, sigma = params
        np.testing.assert_allclose(mu, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(sigma, [0.5, 0.6, 0.7])
        assert batch.gaussian_params("value") is params  # cached

    def test_gaussian_params_none_for_mixed_batches(self):
        rows = make_gaussian_tuples(2)
        rows.append(
            StreamTuple(timestamp=2.0, values={"i": 2}, uncertain={"value": Uniform(0.0, 1.0)})
        )
        batch = TupleBatch(rows)
        assert batch.gaussian_params("value") is None
        assert batch.gaussian_params("value") is None  # cached negative result

    def test_moments_match_distribution_moments(self):
        rows = make_gaussian_tuples(2)
        rows.append(
            StreamTuple(timestamp=2.0, values={"i": 2}, uncertain={"value": Uniform(0.0, 6.0)})
        )
        batch = TupleBatch(rows)
        moments = batch.moments("value")
        assert moments is not None
        means, variances = moments
        np.testing.assert_allclose(means, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(variances, [0.25, 0.36, 3.0])

    def test_moments_none_when_attribute_missing(self):
        rows = make_gaussian_tuples(1) + [StreamTuple(timestamp=1.0, values={"i": 1})]
        assert TupleBatch(rows).moments("value") is None

    def test_segmented_mixture_moments_match_scalar_methods(self):
        # Ragged mixtures (1-6 components) interleaved with Gaussians and
        # a Uniform: every row's moments must match its own scalar
        # mean()/variance() to 1e-12, the mean relative to the size of
        # the summed terms (it can cancel), the variance relative to itself.
        rng = np.random.default_rng(7)
        dists = []
        for i in range(400):
            if i % 7 == 3:
                dists.append(Gaussian(rng.uniform(-100, 100), rng.uniform(0.1, 10)))
            elif i % 11 == 5:
                dists.append(Uniform(-rng.uniform(0, 5), rng.uniform(0, 5)))
            else:
                k = int(rng.integers(1, 7))
                dists.append(
                    GaussianMixture(
                        rng.dirichlet(np.ones(k)),
                        rng.uniform(-1000, 1000, k) * rng.choice([1e-3, 1.0, 1e3]),
                        rng.uniform(0.01, 20, k),
                    )
                )
        rows = [
            StreamTuple(timestamp=float(i), uncertain={"value": d}) for i, d in enumerate(dists)
        ]
        means, variances = TupleBatch(rows).moments("value")
        for dist, mean, variance in zip(dists, means, variances):
            scale = (
                float(np.dot(dist.weights, np.abs(dist.means)))
                if isinstance(dist, GaussianMixture)
                else abs(dist.mean())
            )
            assert abs(mean - dist.mean()) <= 1e-12 * max(scale, 1e-300)
            assert abs(variance - dist.variance()) <= 1e-12 * dist.variance()

    def test_moments_none_for_non_scalar_rows(self):
        rows = make_gaussian_tuples(1) + [
            StreamTuple(
                timestamp=1.0,
                uncertain={"value": MultivariateGaussian([1.0, 2.0], np.eye(2))},
            )
        ]
        assert TupleBatch(rows).moments("value") is None

    def test_uncertain_column_exposes_distributions(self):
        batch = TupleBatch(make_gaussian_tuples(2))
        col = batch.uncertain_column("value")
        assert isinstance(col[0], Gaussian)
        assert col[1].mu == 2.0


def mixed_rows():
    """Rows with every cached column: Gaussians and a mixture, tags and
    derived rows whose lineage has several base tuples."""
    rows = make_gaussian_tuples(9)
    rows[4] = StreamTuple(
        timestamp=4.0,
        values={"i": 4},
        uncertain={"value": GaussianMixture([0.3, 0.7], [1.0, 5.0], [1.0, 2.0])},
    )
    rows[6] = rows[6].derive(extra_lineage=rows[2].lineage)
    rows[7] = rows[7].derive(values={"i": 70}, extra_lineage=(123, 456))
    return rows


def prime(batch):
    """Gather every cached column of ``batch``; return it."""
    batch.timestamps()
    batch.gaussian_params("value")
    batch.moments("value")
    batch.value_column("i")
    batch.lineage_ids()
    return batch


def assert_columns_fresh(batch):
    """Each column ``batch`` holds equals a gather from its own rows."""
    fresh = TupleBatch(batch.to_tuples())
    if batch._timestamps is not None:
        np.testing.assert_array_equal(batch._timestamps, fresh.timestamps())
    for name, pair in batch._gaussian_cols.items():
        want = fresh.gaussian_params(name)
        assert (pair is None) == (want is None)
        if pair is not None:
            np.testing.assert_array_equal(pair[0], want[0])
            np.testing.assert_array_equal(pair[1], want[1])
    for name, pair in batch._moment_cols.items():
        want = fresh.moments(name)
        assert (pair is None) == (want is None)
        if pair is not None:
            np.testing.assert_array_equal(pair[0], want[0])
            np.testing.assert_array_equal(pair[1], want[1])
    for name, column in batch._value_cols.items():
        assert list(column) == list(fresh.value_column(name))
    if batch._lineage is not None:
        ids, offsets = batch._lineage
        assert ids.dtype == np.int64 and offsets.dtype == np.int64
        assert len(offsets) == len(batch) + 1
        got = [set(ids[a:b].tolist()) for a, b in zip(offsets, offsets[1:])]
        assert got == [set(t.lineage) for t in batch]


class TestCarriedColumns:
    """Derived batches carry their parents' columns, equal to a fresh gather."""

    @pytest.mark.parametrize(
        "derive",
        [
            lambda b: b.select([i % 3 != 1 for i in range(len(b))]),
            lambda b: b.select([False] * len(b)),
            lambda b: b[2:7],
            lambda b: b[7:2],
            lambda b: b[::2],
            lambda b: b[::-3],
            lambda b: list(b.chunks(4))[1],
            lambda b: TupleBatch.concat([b[5:], b[:5]]),
            lambda b: TupleBatch.concat([b, b.select([i % 2 == 0 for i in range(len(b))])]),
        ],
        ids=["select", "select-none", "slice", "empty-slice", "step", "reverse-step",
             "chunk", "concat", "concat-select"],
    )
    def test_derived_columns_equal_a_fresh_gather(self, derive):
        source = prime(TupleBatch(mixed_rows()))
        derived = derive(source)
        if len(derived):  # an empty batch may start without columns
            assert derived._timestamps is not None
            assert derived._lineage is not None
            assert "i" in derived._value_cols
        assert_columns_fresh(derived)

    def test_a_column_absent_from_one_part_is_not_carried(self):
        rows = mixed_rows()
        parts = [prime(TupleBatch(rows[:4])), TupleBatch(rows[4:])]
        joined = TupleBatch.concat(parts)
        assert joined._timestamps is None and joined._lineage is None
        assert joined._value_cols == {} and joined._moment_cols == {}
        assert_columns_fresh(joined)

    def test_a_negative_gather_is_not_carried(self):
        # The mixture row makes the source's Gaussian column None; the
        # rows without it are all Gaussian, which the subset must find.
        source = prime(TupleBatch(mixed_rows()))
        assert source.gaussian_params("value") is None
        subset = source.select([i != 4 for i in range(len(source))])
        assert "value" not in subset._gaussian_cols
        assert subset.gaussian_params("value") is not None
        assert_columns_fresh(subset)

    def test_source_lineage_ids_are_one_per_row(self):
        batch = TupleBatch(make_gaussian_tuples(5))
        ids, offsets = batch.lineage_ids()
        assert ids.tolist() == [t.tuple_id for t in batch]
        assert offsets.tolist() == list(range(6))
        assert batch.lineage_ids()[0] is ids  # cached


class TestBatchSerialization:
    def test_encode_decode_roundtrip(self):
        batch = TupleBatch(make_gaussian_tuples(4))
        decoded = decode_batch(encode_batch_wire(batch))
        assert len(decoded) == len(batch)
        for original, restored in zip(batch, decoded):
            assert restored.timestamp == original.timestamp
            assert restored.values == original.values
            assert restored.lineage == original.lineage
            assert restored.distribution("value") == original.distribution("value")

    def test_empty_batch_roundtrip(self):
        assert len(decode_batch(encode_batch_wire(TupleBatch()))) == 0

    def test_wire_columns_prime_the_gaussian_cache(self):
        decoded = decode_batch(encode_batch_wire(TupleBatch(make_gaussian_tuples(4))))
        mu, sigma = decoded._gaussian_cols["value"]
        np.testing.assert_array_equal(mu, [1.0, 2.0, 3.0, 4.0])
        assert decoded.gaussian_params("value") is decoded._gaussian_cols["value"]

    @pytest.mark.parametrize("runs", [1, 3], ids=["one-run", "three-runs"])
    def test_wire_primes_columns_equal_to_a_fresh_gather(self, runs):
        rows = mixed_rows()
        if runs == 3:
            # A value of another type cuts the batch into three runs.
            rows[3] = rows[3].derive(values={"i": 3.5})
        decoded = decode_batch(encode_batch_wire(TupleBatch(rows)))
        assert decoded._timestamps is not None
        assert decoded._lineage is not None
        assert "i" in decoded._value_cols
        assert_columns_fresh(decoded)
        gaussian = decode_batch(encode_batch_wire(TupleBatch(make_gaussian_tuples(6))))
        assert gaussian._gaussian_cols["value"] is not None
        assert_columns_fresh(gaussian)

    def test_mixture_batch_roundtrip(self):
        mixture = GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, 2.0])
        rows = [
            StreamTuple(timestamp=0.0, uncertain={"value": mixture}),
            StreamTuple(timestamp=1.0, uncertain={"value": Gaussian(3.0, 1.0)}),
        ]
        decoded = decode_batch(encode_batch_wire(TupleBatch(rows)))
        assert isinstance(decoded[0].distribution("value"), GaussianMixture)
        assert decoded[1].distribution("value") == Gaussian(3.0, 1.0)
        assert decoded.gaussian_params("value") is None

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_batch(b"not a batch")

    def test_decode_rejects_truncated_payload(self):
        payload = encode_batch_wire(TupleBatch(make_gaussian_tuples(3)))
        with pytest.raises(ValueError, match="truncated"):
            decode_batch(payload[:-5])

    def test_decode_rejects_trailing_bytes(self):
        payload = encode_batch_wire(TupleBatch(make_gaussian_tuples(2)))
        with pytest.raises(ValueError, match="trailing bytes"):
            decode_batch(payload + b"\x00\x01")


class TestOperatorBatchHooks:
    def test_function_operator_matches_per_tuple_processing(self):
        def double(item):
            yield item.derive(values={"i": item.value("i") * 2})

        rows = make_gaussian_tuples(5)
        # The per-row reference: the function applied to each row in turn.
        per_tuple = [out.value("i") for t in rows for out in double(t)]
        batched = FunctionOperator(double).process_batch(TupleBatch(rows))
        assert [t.value("i") for t in batched] == per_tuple

    def test_accept_batch_counts_and_times(self):
        op = PassThroughOperator()
        out = op.accept_batch(TupleBatch(make_gaussian_tuples(4)))
        assert len(out) == 4
        assert op.tuples_in == 4
        assert op.tuples_out == 4
        assert op.batches_in == 1
        assert op.processing_seconds >= 0.0
        op.reset_counters()
        assert (op.tuples_in, op.batches_in, op.processing_seconds) == (0, 0, 0.0)

    def test_filter_batch_matches_tuple_path(self):
        rows = make_gaussian_tuples(6)
        keep_even = Filter(lambda t: t.value("i") % 2 == 0)
        batched = keep_even.process_batch(TupleBatch(rows))
        assert [t.value("i") for t in batched] == [0, 2, 4]

    def test_filter_vectorised_batch_predicate(self):
        rows = make_gaussian_tuples(6)
        keep_late = Filter(
            lambda t: t.timestamp >= 3.0,
            batch_predicate=lambda batch: batch.timestamps() >= 3.0,
        )
        batched = keep_late.process_batch(TupleBatch(rows))
        assert [t.value("i") for t in batched] == [3, 4, 5]

    def test_collect_sink_batch_collects_all(self):
        sink = CollectSink()
        out = sink.accept_batch(TupleBatch(make_gaussian_tuples(3)))
        assert len(out) == 0
        assert [t.value("i") for t in sink.results] == [0, 1, 2]
