"""Tests for lineage-aware aggregation over correlated intermediate tuples."""

import pytest

from repro.core import CFApproximationSum, lineage_aware_sum
from repro.distributions import DistributionError, Gaussian
from repro.streams import StreamTuple, TupleArchive


def base_tuple(mean, sigma=1.0):
    return StreamTuple(timestamp=0.0, values={}, uncertain={"v": Gaussian(mean, sigma)})


class TestLineageAwareSum:
    def test_independent_tuples_match_cf_strategy(self):
        archive = TupleArchive()
        tuples = [base_tuple(float(i), 1.0) for i in range(5)]
        archive.archive_many(tuples)
        result = lineage_aware_sum(tuples, "v", archive, rng=1)
        direct = CFApproximationSum().result_distribution([t.distribution("v") for t in tuples])
        assert result.mean() == pytest.approx(direct.mean(), rel=1e-6)
        assert result.variance() == pytest.approx(direct.variance(), rel=1e-6)

    def test_duplicated_base_tuple_doubles_variance_scaling(self):
        # The same base tuple contributes twice through two intermediates:
        # the total is 2X, whose variance is 4 sigma^2, not 2 sigma^2.
        archive = TupleArchive()
        base = base_tuple(10.0, 2.0)
        archive.archive(base)
        intermediate_a = base.derive(values={"path": "a"})
        intermediate_b = base.derive(values={"path": "b"})
        result = lineage_aware_sum(
            [intermediate_a, intermediate_b], "v", archive, n_samples=8000, rng=2
        )
        assert result.mean() == pytest.approx(20.0, rel=0.05)
        assert result.variance() == pytest.approx(16.0, rel=0.15)

    def test_naive_independent_sum_understates_variance(self):
        archive = TupleArchive()
        base = base_tuple(0.0, 3.0)
        archive.archive(base)
        intermediates = [base.derive(values={"k": k}) for k in range(2)]
        correlated = lineage_aware_sum(intermediates, "v", archive, n_samples=8000, rng=3)
        naive = CFApproximationSum().result_distribution(
            [t.distribution("v") for t in intermediates]
        )
        assert correlated.variance() > 1.5 * naive.variance()

    def test_mixed_correlated_and_independent_groups(self):
        archive = TupleArchive()
        shared = base_tuple(1.0, 1.0)
        lone = base_tuple(5.0, 1.0)
        archive.archive_many([shared, lone])
        items = [shared.derive(values={"k": 0}), shared.derive(values={"k": 1}), lone]
        result = lineage_aware_sum(items, "v", archive, n_samples=8000, rng=4)
        assert result.mean() == pytest.approx(2.0 * 1.0 + 5.0, rel=0.05)
        # Var = 4 * 1 (correlated pair) + 1 (independent) = 5.
        assert result.variance() == pytest.approx(5.0, rel=0.2)

    def test_custom_contribution_function(self):
        archive = TupleArchive()
        base = base_tuple(4.0, 0.5)
        archive.archive(base)
        halves = [base.derive(values={"half": i}) for i in range(2)]

        def half_contribution(item, assignment):
            return 0.5 * sum(assignment[b] for b in item.lineage)

        result = lineage_aware_sum(
            halves, "v", archive, contribution=half_contribution, n_samples=8000, rng=5
        )
        assert result.mean() == pytest.approx(4.0, rel=0.05)

    def test_missing_base_tuple_raises(self):
        archive = TupleArchive()
        base = base_tuple(0.0)
        intermediates = [base.derive(values={"k": k}) for k in range(2)]
        with pytest.raises(KeyError):
            lineage_aware_sum(intermediates, "v", archive, rng=6)

    def test_empty_input_rejected(self):
        with pytest.raises(DistributionError):
            lineage_aware_sum([], "v", TupleArchive())
