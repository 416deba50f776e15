"""Tests for the archiving and lineage-aware aggregation operators."""

import pytest

from repro.core import ArchivingOperator, LineageAwareAggregate, UncertainAggregate, CLTSum
from repro.distributions import Gaussian
from repro.streams import StreamTuple, TumblingCountWindow, TupleArchive
from repro.streams.operators.base import OperatorError


def base_tuple(ts, mean, sigma=1.0):
    return StreamTuple(timestamp=ts, values={}, uncertain={"v": Gaussian(mean, sigma)})


class TestArchivingOperator:
    def test_archives_and_passes_through(self, process_one):
        archive = TupleArchive()
        op = ArchivingOperator(archive)
        item = base_tuple(0.0, 1.0)
        outputs = process_one(op, item)
        assert outputs == [item]
        assert item.tuple_id in archive

    def test_retention_evicts_old_tuples(self, process_one):
        archive = TupleArchive()
        op = ArchivingOperator(archive, retention_seconds=5.0)
        old = base_tuple(0.0, 1.0)
        process_one(op, old)
        process_one(op, base_tuple(10.0, 2.0))
        assert old.tuple_id not in archive
        assert len(archive) == 1

    def test_invalid_retention(self):
        with pytest.raises(ValueError):
            ArchivingOperator(TupleArchive(), retention_seconds=0.0)


class TestLineageAwareAggregate:
    def test_independent_window_matches_plain_aggregate(self, process_one):
        archive = TupleArchive()
        archiver = ArchivingOperator(archive)
        lineage_agg = LineageAwareAggregate(
            TumblingCountWindow(4), "v", archive, rng=1
        )
        plain_agg = UncertainAggregate(TumblingCountWindow(4), "v", CLTSum(), output_attribute="sum_v")
        items = [base_tuple(float(i), float(i), 0.5) for i in range(4)]
        outputs_lineage, outputs_plain = [], []
        for item in items:
            process_one(archiver, item)
            outputs_lineage.extend(process_one(lineage_agg, item))
            outputs_plain.extend(process_one(plain_agg, item))
        assert len(outputs_lineage) == 1 and len(outputs_plain) == 1
        a = outputs_lineage[0].distribution("sum_v")
        b = outputs_plain[0].distribution("sum_v")
        assert a.mean() == pytest.approx(b.mean(), rel=1e-6)
        assert a.variance() == pytest.approx(b.variance(), rel=1e-6)

    def test_correlated_window_gets_larger_variance_than_naive(self, process_one):
        archive = TupleArchive()
        base = base_tuple(0.0, 10.0, 2.0)
        archive.archive(base)
        # Two intermediates derived from the same base tuple (e.g. two join
        # outputs that both carry the same temperature reading).
        derived = [base.derive(values={"k": k}) for k in range(2)]

        lineage_agg = LineageAwareAggregate(
            TumblingCountWindow(2), "v", archive, n_samples=8000, rng=2
        )
        outputs = []
        for item in derived:
            outputs.extend(process_one(lineage_agg, item))
        assert len(outputs) == 1
        result = outputs[0].distribution("sum_v")
        naive = UncertainAggregate(
            TumblingCountWindow(2), "v", CLTSum(), check_independence=False
        )
        naive_outputs = []
        for item in derived:
            naive_outputs.extend(process_one(naive, item))
        naive_result = naive_outputs[0].distribution("sum_v")
        assert result.mean() == pytest.approx(20.0, rel=0.05)
        assert result.variance() > 1.5 * naive_result.variance()

    def test_plain_aggregate_rejects_what_lineage_aggregate_accepts(self, process_one):
        archive = TupleArchive()
        base = base_tuple(0.0, 1.0)
        archive.archive(base)
        derived = [base.derive(values={"k": k}) for k in range(2)]
        plain = UncertainAggregate(TumblingCountWindow(2), "v", CLTSum())
        process_one(plain, derived[0])
        with pytest.raises(OperatorError):
            process_one(plain, derived[1])
        lineage_agg = LineageAwareAggregate(TumblingCountWindow(2), "v", archive, rng=3)
        process_one(lineage_agg, derived[0])
        assert process_one(lineage_agg, derived[1])

    def test_flush_emits_partial_window(self, process_one):
        archive = TupleArchive()
        lineage_agg = LineageAwareAggregate(TumblingCountWindow(10), "v", archive, rng=4)
        item = base_tuple(0.0, 3.0)
        archive.archive(item)
        process_one(lineage_agg, item)
        outputs = list(lineage_agg.flush())
        assert len(outputs) == 1
        assert outputs[0].value("window_count") == 1
