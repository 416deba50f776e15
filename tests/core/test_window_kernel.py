"""Property tests: the window x group moment kernel against the per-window loop.

On the batch path a moment-closed SUM/AVG (CLT, single-component CF
approximation) reduces every (window, group) a batch closes in one
array pass.  The reference below is the loop that pass replaced: per
closed window, a dict grouping sorted by ``repr``, an independence
check, the summand moments from each row's scalar ``mean()`` /
``variance()``, two ``np.sum`` calls, ``result_from_moments`` and the
HAVING clause.

The two must emit the same groups in the same order with the same
counts, lineage and HAVING decisions, and a HAVING probability that is
the scalar tail of the emitted distribution.  Means and variances agree to
1e-12, relative to the size of the summed terms: the kernel adds a
group's rows in row order, ``np.sum`` pairwise, so a threshold within a
few ulps of a group's mean could be decided either way.  The thresholds
near a group's mean below sit at least 1e-5 of its sigma plus 1e-12 of
its summed magnitudes away: a tail within about 4e-6 of 1/2, yet far
outside that rounding.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CFApproximationSum,
    CLTSum,
    Comparison,
    GroupByAggregate,
    HavingClause,
    ProbabilisticSelect,
    UncertainAggregate,
    UncertainPredicate,
)
from repro.core.aggregation import ColumnKey
from repro.core.aggregation.order_statistics import max_distribution
from repro.core.aggregation.transforms import affine_distribution
from repro.distributions import Gaussian, GaussianMixture, MultivariateGaussian
from repro.streams import StreamTuple, TumblingCountWindow, TumblingTimeWindow, TupleBatch
from repro.streams.operators.base import OperatorError

#: Keys of mixed types; 1, 1.0 and True are equal, so they share a group.
KEYS = (0, 1, 1.0, True, "a", "b", ("t", 1), None, -3, 2.5)
ROW_KINDS = ("gaussian", "mixture", "numeric")
SCORE_THRESHOLD = 0.0
TOLERANCE = 1e-12


def make_stream(seed, n_rows, kinds, gaps):
    """``n_rows`` tuples: a ``value`` of the given kinds, a Gaussian ``score``, a key."""
    rng = np.random.default_rng(seed)
    rows = []
    t = 0.0
    for _ in range(n_rows):
        t += float(rng.choice(gaps))
        kind = kinds[int(rng.integers(len(kinds)))]
        values = {"key": KEYS[int(rng.integers(len(KEYS)))]}
        uncertain = {"score": Gaussian(rng.uniform(-3, 3), rng.uniform(0.5, 2))}
        if kind == "gaussian":
            uncertain["value"] = Gaussian(rng.uniform(-100, 100), rng.uniform(0.1, 20))
        elif kind == "mixture":
            k = int(rng.integers(1, 5))
            uncertain["value"] = GaussianMixture(
                rng.dirichlet(np.ones(k)), rng.uniform(-100, 100, k), rng.uniform(0.1, 20, k)
            )
        else:
            values["value"] = float(rng.uniform(-100, 100))
        rows.append(StreamTuple(timestamp=t, values=values, uncertain=uncertain))
    return rows


def reference_moments(item):
    """(mean, variance, |mean|-scale) of one summand, from its scalar methods."""
    if item.has_uncertain("value"):
        dist = item.distribution("value")
    else:
        dist = Gaussian(float(item.value("value")), 1e-9)
    scale = (
        float(np.dot(dist.weights, np.abs(dist.means)))
        if isinstance(dist, GaussianMixture)
        else abs(dist.mean())
    )
    return dist.mean(), dist.variance(), scale


def reference_emit(closes, grouped, function, strategy, having):
    """The per-window loop: one record per emitted (window, group)."""
    out = []
    for close in closes:
        if not close.items:
            continue
        groups = {}
        for item in close.items:
            groups.setdefault(item.value("key") if grouped else None, []).append(item)
        for key in sorted(groups, key=repr):
            items = groups[key]
            lineage = frozenset().union(*(item.lineage for item in items))
            if len(lineage) != sum(len(item.lineage) for item in items):
                raise OperatorError("overlap")
            moments = np.asarray([reference_moments(item) for item in items])
            total = strategy.result_from_moments(
                float(np.sum(moments[:, 0])), float(np.sum(moments[:, 1]))
            )
            scale = float(np.sum(moments[:, 2]))
            if function == "avg":
                total = affine_distribution(total, scale=1.0 / len(items))
                scale /= len(items)
            probability = None
            if having is not None:
                probability = total.prob_greater_than(having.threshold)
                if not probability >= having.min_probability:
                    continue
            out.append(
                dict(
                    start=close.start,
                    end=close.end,
                    group=key,
                    count=len(items),
                    mean=total.mu,
                    variance=total.sigma**2,
                    scale=scale,
                    probability=probability,
                    lineage=lineage,
                )
            )
    return out


class SelectThenAggregate:
    """The two boxes a select→aggregate plan lowers to: a selection that
    does not annotate, feeding the aggregate."""

    def __init__(self, aggregate):
        predicate = UncertainPredicate("score", Comparison.GREATER, SCORE_THRESHOLD)
        self.select = ProbabilisticSelect(predicate, 0.5, probability_attribute=None)
        self.aggregate = aggregate

    def process_batch(self, batch):
        return self.aggregate.process_batch(self.select.process_batch(batch))

    def flush(self):
        return self.aggregate.flush()

    def state_snapshot(self):
        return self.aggregate.state_snapshot()

    def state_restore(self, state):
        self.aggregate.state_restore(state)


def build_operator(grouped, selected, window_spec, function, strategy, having):
    agg = (
        GroupByAggregate(
            window_spec,
            lambda item: item.value("key"),
            "value",
            strategy,
            function=function,
            having=having,
        )
        if grouped
        else UncertainAggregate(window_spec, "value", strategy, function=function, having=having)
    )
    return SelectThenAggregate(agg) if selected else agg


def run_both(rows, batch_size, window_spec, grouped, selected, function, strategy, having):
    """Drive the operator's batch path and the reference over the same closes."""
    op = build_operator(grouped, selected, window_spec, function, strategy, having)
    buffer = window_spec.new_buffer()
    predicate = UncertainPredicate("score", Comparison.GREATER, SCORE_THRESHOLD)
    kernel, reference = [], []
    for start in range(0, len(rows), batch_size):
        batch = TupleBatch(rows[start : start + batch_size])
        kernel_error = reference_error = None
        try:
            kernel.extend(op.process_batch(batch))
        except OperatorError as exc:
            kernel_error = exc
        if selected:
            batch = batch.select(predicate.probabilities(batch) >= 0.5)
        try:
            reference.extend(
                reference_emit(buffer.add_many(batch), grouped, function, strategy, having)
            )
        except OperatorError as exc:
            reference_error = exc
        assert (kernel_error is None) == (reference_error is None)
        if kernel_error is not None:
            return kernel, reference, kernel_error
    return kernel, reference, None


def assert_same(kernel, reference, having):
    assert len(kernel) == len(reference)
    for got, want in zip(kernel, reference):
        values = got.values
        assert values["window_start"] == want["start"]
        assert values["window_end"] == want["end"]
        assert values["window_count"] == want["count"]
        group = values.get("group")
        assert type(group) is type(want["group"]) and group == want["group"]
        assert got.lineage == want["lineage"]
        dist = got.distribution("sum_value" if "sum_value" in got.uncertain else "avg_value")
        assert abs(dist.mean() - want["mean"]) <= TOLERANCE * max(want["scale"], 1e-300)
        assert abs(dist.variance() - want["variance"]) <= TOLERANCE * want["variance"]
        if having is None:
            assert "having_probability" not in values
        else:
            # The vectorised tail equals the scalar one on the emitted
            # distribution; against the reference it is only as close as
            # the tail's conditioning allows (a degenerate sum's sigma is
            # ~1e-9), so the decision above is what must match.
            assert values["having_probability"] == dist.prob_greater_than(having.threshold)


windows = st.one_of(
    st.builds(TumblingCountWindow, st.integers(1, 40)),
    st.builds(TumblingTimeWindow, st.sampled_from([0.5, 1.0, 2.5, 10.0])),
)
batch_sizes = st.one_of(st.integers(1, 16), st.sampled_from([64, 257, 1024, 4096]))
kinds = st.sampled_from(
    [("gaussian",), ("mixture",), ("numeric",), ("gaussian", "numeric"), ROW_KINDS]
)
gaps = st.sampled_from([(0.0, 0.1), (0.1, 0.5, 1.0), (0.0, 3.0, 12.0)])
strategies = st.sampled_from([CLTSum(), CFApproximationSum()])
functions = st.sampled_from(["sum", "avg"])


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(0, 400),
    kinds=kinds,
    gaps=gaps,
    window_spec=windows,
    batch_size=batch_sizes,
    grouped=st.booleans(),
    selected=st.booleans(),
    function=functions,
    strategy=strategies,
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_kernel_matches_per_window_loop(
    seed, n_rows, kinds, gaps, window_spec, batch_size, grouped, selected, function, strategy
):
    rows = make_stream(seed, n_rows, kinds, gaps)
    kernel, reference, error = run_both(
        rows, batch_size, window_spec, grouped, selected, function, strategy, None
    )
    assert error is None
    assert_same(kernel, reference, None)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 300),
    kinds=kinds,
    window_spec=windows,
    batch_size=batch_sizes,
    grouped=st.booleans(),
    selected=st.booleans(),
    function=functions,
    strategy=strategies,
    pick=st.integers(0, 10**6),
    offset=st.sampled_from([-0.5, -1e-3, -1e-5, 1e-5, 1e-3, 0.5]),
    min_probability=st.sampled_from([0.3, 0.5, 0.7]),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_having_near_threshold_decides_like_the_loop(
    seed,
    n_rows,
    kinds,
    window_spec,
    batch_size,
    grouped,
    selected,
    function,
    strategy,
    pick,
    offset,
    min_probability,
):
    rows = make_stream(seed, n_rows, kinds, (0.0, 0.1, 1.0))
    _, plain, _ = run_both(rows, 4096, window_spec, grouped, selected, function, strategy, None)
    if not plain:
        return
    # A threshold just above or below one group's mean: the tail
    # probability there is close to 1/2 for that group.
    target = plain[pick % len(plain)]
    sigma = float(np.sqrt(target["variance"]))
    threshold = target["mean"] + offset * (sigma + 1e-7 * (1.0 + target["scale"]))
    having = HavingClause(threshold=threshold, min_probability=min_probability)
    kernel, reference, error = run_both(
        rows, batch_size, window_spec, grouped, selected, function, strategy, having
    )
    assert error is None
    assert_same(kernel, reference, having)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(2, 200),
    window_spec=windows,
    batch_size=batch_sizes,
    grouped=st.booleans(),
    function=functions,
    copy_at=st.integers(0, 10**6),
    same_key=st.booleans(),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_overlapping_lineage_raises_like_the_loop(
    seed, n_rows, window_spec, batch_size, grouped, function, copy_at, same_key
):
    rows = make_stream(seed, n_rows, ROW_KINDS, (0.0, 0.1))
    # A derived copy shares its source's lineage.  Next to its source it
    # lands in the same window unless a boundary falls between them; with
    # another key it lands in another group, which is independent.
    i = copy_at % n_rows
    source = rows[i]
    key = source.value("key") if same_key else ("other", i)
    rows.insert(i + 1, source.derive(values={"key": key}))
    kernel, reference, error = run_both(
        rows, batch_size, window_spec, grouped, False, function, CLTSum(), None
    )
    if error is not None:
        assert "overlapping lineage" in str(error)
    else:
        assert_same(kernel, reference, None)


def test_batch_closing_no_window_emits_nothing():
    op = UncertainAggregate(TumblingCountWindow(10), "value", CLTSum())
    rows = make_stream(1, 9, ("gaussian",), (0.1,))
    assert len(op.process_batch(TupleBatch(rows))) == 0


def test_equal_keys_share_the_first_seen_group():
    # 1, 1.0 and True hash and compare equal: one group per window, keyed
    # by the first of them seen in that window.
    rows = [
        StreamTuple(timestamp=float(t), values={"key": k}, uncertain={"value": Gaussian(1.0, 1.0)})
        for t, k in enumerate([True, 1, 1.0, "a", 1.0, 1, True, "a"])
    ]
    op = GroupByAggregate(TumblingCountWindow(4), lambda r: r.value("key"), "value", CLTSum())
    out = op.process_batch(TupleBatch(rows))
    groups = [(item.values["group"], item.values["window_count"]) for item in out]
    assert [type(g) for g, _ in groups] == [str, bool, str, float]
    assert [n for _, n in groups] == [1, 3, 1, 3]


PLANAR = MultivariateGaussian([1.0, 2.0], np.eye(2))


def planar_rows(n):
    return [
        StreamTuple(timestamp=float(i), uncertain={"loc": PLANAR, "score": Gaussian(5.0, 1.0)})
        for i in range(n)
    ]


@pytest.mark.parametrize("path", ["window-loop", "batch", "selected", "flush"])
def test_multivariate_summands_are_refused(path):
    agg = UncertainAggregate(TumblingCountWindow(4), "loc", CFApproximationSum())
    with pytest.raises(OperatorError, match="'loc'.*MultivariateGaussian"):
        if path == "window-loop":
            # The per-row reference: each row added alone, and every close
            # emitted through the per-window loop.
            for item in planar_rows(4):
                list(agg._emit(agg._buffer.add(item)))
        elif path == "batch":
            agg.process_batch(TupleBatch(planar_rows(4)))
        elif path == "flush":
            agg.process_batch(TupleBatch(planar_rows(3)))
            list(agg.flush())
        else:
            SelectThenAggregate(agg).process_batch(TupleBatch(planar_rows(4)))


def flush_rows():
    """40 rows in one 10 s window: Gaussians and 2-component mixtures."""
    rng = np.random.default_rng(3)
    rows = []
    for i in range(40):
        if i % 2:
            value = GaussianMixture(
                rng.dirichlet(np.ones(2)), rng.uniform(0, 50, 2), rng.uniform(0.5, 5, 2)
            )
        else:
            value = Gaussian(rng.uniform(0, 50), rng.uniform(0.5, 5))
        rows.append(
            StreamTuple(
                timestamp=0.2 * i, values={"key": i % 3}, uncertain={"value": value}
            )
        )
    return rows


@pytest.mark.parametrize("grouped", [False, True], ids=["plain", "grouped"])
@pytest.mark.parametrize("strategy", [CLTSum(), CFApproximationSum()], ids=["clt", "cf"])
@pytest.mark.parametrize("function", ["sum", "avg"])
def test_flush_close_equals_close_by_a_later_row(function, strategy, grouped):
    """A window closed by ``flush()`` is bit for bit the one a later row closes."""
    rows = flush_rows()
    late = StreamTuple(
        timestamp=100.0, values={"key": 0}, uncertain={"value": Gaussian(1.0, 1.0)}
    )
    # Row means average about 25: the plain window passes HAVING, and of
    # the three groups only key 0 (the heaviest) does.
    threshold = 25.0 if function == "avg" else (333.0 if grouped else 1000.0)
    results = []
    for closer in ("row", "flush"):
        agg = build_operator(
            grouped, False, TumblingTimeWindow(10.0), function, strategy,
            HavingClause(threshold, 0.5),
        )
        assert len(agg.process_batch(TupleBatch(rows))) == 0
        if closer == "row":
            results.append(list(agg.process_batch(TupleBatch([late]))))
        else:
            results.append(list(agg.flush()))
    by_row, by_flush = results
    assert len(by_row) == 1
    assert len(by_row) == len(by_flush)
    for a, b in zip(by_row, by_flush):
        assert a.values == b.values
        assert a.lineage == b.lineage
        da, db = a.distribution(agg.output_attribute), b.distribution(agg.output_attribute)
        assert (da.mu, da.sigma) == (db.mu, db.sigma)


# ----------------------------------------------------------------------
# Column-resident windows: the closes' rows stay in their batches
# ----------------------------------------------------------------------
def prime_columns(batch):
    """Gather the columns the kernel reads, so derived batches carry them."""
    batch.timestamps()
    batch.lineage_ids()
    batch.moments("value")
    batch.value_column("key")
    return batch


def derived_batches(rows, batch_size, how):
    """Batches cut from primed source batches: both halves, or the rows a
    mask keeps."""
    for start in range(0, len(rows), batch_size):
        source = prime_columns(TupleBatch(rows[start : start + batch_size]))
        if how == "slice":
            half = len(source) // 2
            yield source[:half]
            yield source[half:]
        else:
            yield source.select(np.arange(len(source)) % 3 != 1)


def sequence_outputs(op, batches):
    out = []
    for batch in batches:
        out.extend(op.process_batch(batch))
    out.extend(op.flush())
    return out


def reference_sequence(batches, window_spec, grouped, function, strategy, having=None):
    """The per-window loop over the closes a row-by-row buffer makes."""
    buffer = window_spec.new_buffer()
    closes = [close for batch in batches for item in batch for close in buffer.add(item)]
    return reference_emit(closes + buffer.flush(), grouped, function, strategy, having)


def assert_same_outputs(got, want):
    """Two runs of the operator emitted the same tuples, bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.timestamp == b.timestamp
        assert a.values == b.values
        assert [type(v) for v in a.values.values()] == [type(v) for v in b.values.values()]
        assert a.lineage == b.lineage
        assert a.uncertain.keys() == b.uncertain.keys()
        for name, dist in a.uncertain.items():
            assert (dist.mu, dist.sigma) == (b.uncertain[name].mu, b.uncertain[name].sigma)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 300),
    kinds=kinds,
    window_spec=windows,
    batch_size=st.sampled_from([1, 3, 16, 64, 257]),
    how=st.sampled_from(["slice", "select"]),
    grouped=st.booleans(),
    function=functions,
    strategy=strategies,
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_derived_batches_spanning_windows_match_the_loop(
    seed, n_rows, kinds, window_spec, batch_size, how, grouped, function, strategy
):
    # Sliced and selected batches carry the source's columns; a window
    # spans several of them, and several source batches.
    rows = make_stream(seed, n_rows, kinds, (0.0, 0.1, 1.0))
    batches = list(derived_batches(rows, batch_size, how))
    assert all(batch._lineage is not None for batch in batches)
    op = build_operator(grouped, False, window_spec, function, strategy, None)
    kernel = sequence_outputs(op, batches)
    reference = reference_sequence(batches, window_spec, grouped, function, strategy)
    assert_same(kernel, reference, None)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(4, 200),
    batch_size=st.sampled_from([2, 5, 16, 64]),
    length=st.sampled_from([0.5, 1.0, 2.5]),
    late_at=st.integers(0, 10**6),
    grouped=st.booleans(),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_out_of_order_batch_is_refused_whole(seed, n_rows, batch_size, length, late_at, grouped):
    # A row stamped before the window open when it arrives: the batch is
    # refused before any of its rows is inserted, with an error naming
    # that row's timestamp, and the buffer stays as it was.  The stream
    # then goes on as if the batch had never come.
    rows = make_stream(seed, n_rows, ("gaussian", "numeric"), (0.1, 0.5, 1.0))
    i = 1 + late_at % (n_rows - 1)
    late = StreamTuple(
        timestamp=rows[i - 1].timestamp - 2 * length,
        values={"key": 0},
        uncertain={"value": Gaussian(1.0, 1.0)},
    )
    rows.insert(i, late)
    spec = TumblingTimeWindow(length)
    op = build_operator(grouped, False, spec, "sum", CLTSum(), None)
    buffer = spec.new_buffer()
    kernel, closes, refused = [], [], 0
    for start in range(0, len(rows), batch_size):
        batch = TupleBatch(rows[start : start + batch_size])
        before = op._buffer.state_snapshot()
        # The reference: the rows go in one by one unless one of them
        # lands before the window open at that point.
        current = before["window_index"]
        late_row = None
        for item in batch:
            index = int(item.timestamp // length)
            if current is not None and index < current:
                late_row = item
                break
            current = index
        try:
            kernel.extend(op.process_batch(batch))
        except ValueError as exc:
            assert late_row is not None
            assert f"out-of-order tuple (timestamp {late_row.timestamp!r})" in str(exc)
            after = op._buffer.state_snapshot()
            assert after["window_index"] == before["window_index"]
            assert [t.tuple_id for t in after["items"]] == [t.tuple_id for t in before["items"]]
            refused += 1
            continue
        assert late_row is None
        closes.extend(close for item in batch for close in buffer.add(item))
    assert refused == 1
    kernel.extend(op.flush())
    closes.extend(buffer.flush())
    assert_same(kernel, reference_emit(closes, grouped, "sum", CLTSum(), None), None)


def test_column_key_is_read_as_a_column():
    rows = make_stream(5, 50, ("gaussian",), (0.1,))
    batch = TupleBatch(rows)
    op = GroupByAggregate(TumblingCountWindow(10), ColumnKey("key"), "value", CLTSum())
    op.process_batch(batch)
    assert "key" in batch._value_cols
    # Called on a row, the key reads a value, else a distribution.
    assert ColumnKey("key")(rows[0]) == rows[0].value("key")
    assert ColumnKey("value")(rows[0]) is rows[0].distribution("value")
    with pytest.raises(KeyError, match="'absent'"):
        ColumnKey("absent")(rows[0])


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 300),
    window_spec=windows,
    batch_size=batch_sizes,
    function=functions,
    strip_at=st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_column_key_groups_like_an_opaque_callable(
    seed, n_rows, window_spec, batch_size, function, strip_at
):
    # Same groups, same order and the same first-seen key type (1, 1.0
    # and True merged) whether the key is a column or a callable.  A row
    # that carries the key as a distribution makes the column read fall
    # back to calling the key on each row of its batch.
    rows = make_stream(seed, n_rows, ROW_KINDS, (0.0, 0.1, 1.0))
    if strip_at % 3 == 0:
        i = strip_at % n_rows
        rows[i] = StreamTuple(
            timestamp=rows[i].timestamp,
            values={k: v for k, v in rows[i].values.items() if k != "key"},
            uncertain={**rows[i].uncertain, "key": Gaussian(0.0, 1.0)},
        )
    outputs = []
    for key in (ColumnKey("key"), lambda item: ColumnKey("key")(item)):
        op = GroupByAggregate(window_spec, key, "value", CLTSum(), function=function)
        batches = [TupleBatch(rows[s : s + batch_size]) for s in range(0, n_rows, batch_size)]
        outputs.append(sequence_outputs(op, batches))
    assert_same_outputs(*outputs)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(2, 120),
    batch_size=st.integers(1, 16),
    grouped=st.booleans(),
    function=functions,
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_lineage_overlap_across_a_batch_boundary_raises(
    seed, n_rows, batch_size, grouped, function
):
    # The last row of a batch and a copy of it opening the next batch:
    # one window (a time window longer than the stream), one key.
    rows = make_stream(seed, n_rows, ROW_KINDS, (0.0, 0.1))
    cut = min(batch_size, n_rows)
    copy = rows[cut - 1].derive(values={"key": rows[cut - 1].value("key")})
    rows.insert(cut, copy)
    op = build_operator(grouped, False, TumblingTimeWindow(10**6), function, CLTSum(), None)
    first, second = TupleBatch(rows[:cut]), TupleBatch(rows[cut:])
    assert len(op.process_batch(first)) == 0
    assert len(op.process_batch(second)) == 0
    with pytest.raises(OperatorError, match="overlapping lineage"):
        list(op.flush())
    with pytest.raises(OperatorError, match="overlap"):
        reference_flush(rows, grouped, function)


def reference_flush(rows, grouped, function):
    buffer = TumblingTimeWindow(10**6).new_buffer()
    for item in rows:
        buffer.add(item)
    return reference_emit(buffer.flush(), grouped, function, CLTSum(), None)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 300),
    window_spec=windows,
    batch_size=batch_sizes,
    grouped=st.booleans(),
    selected=st.booleans(),
    function=functions,
    cut=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_checkpoint_mid_window_then_restore_continues_alike(
    seed, n_rows, window_spec, batch_size, grouped, selected, function, cut
):
    # Snapshot after some batches (the open window holds segments), restore
    # into a fresh operator (the window holds rows), and go on.
    rows = make_stream(seed, n_rows, ROW_KINDS, (0.0, 0.1, 1.0))
    batches = [TupleBatch(rows[s : s + batch_size]) for s in range(0, n_rows, batch_size)]
    k = cut % (len(batches) + 1)
    whole = sequence_outputs(
        build_operator(grouped, selected, window_spec, function, CLTSum(), None), batches
    )
    before = build_operator(grouped, selected, window_spec, function, CLTSum(), None)
    head = [out for batch in batches[:k] for out in before.process_batch(batch)]
    after = build_operator(grouped, selected, window_spec, function, CLTSum(), None)
    after.state_restore(before.state_snapshot())
    assert_same_outputs(head + sequence_outputs(after, batches[k:]), whole)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(0, 200),
    window_spec=windows,
    batch_size=batch_sizes,
    function=st.sampled_from(["count", "max"]),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_row_aggregates_read_the_lazy_rows(seed, n_rows, window_spec, batch_size, function):
    # COUNT and MAX read each close's rows: built from its segments on
    # the batch path, held as rows by a row-by-row buffer.
    rows = make_stream(seed, n_rows, ("gaussian",), (0.0, 0.1, 1.0))
    op = UncertainAggregate(window_spec, "value", CLTSum(), function=function)
    batches = [TupleBatch(rows[s : s + batch_size]) for s in range(0, n_rows, batch_size)]
    got = sequence_outputs(op, batches)
    buffer = window_spec.new_buffer()
    closes = [close for item in rows for close in buffer.add(item)] + buffer.flush()
    assert len(got) == len(closes)
    for out, close in zip(got, closes):
        assert (out.values["window_start"], out.values["window_end"]) == (close.start, close.end)
        assert out.values["window_count"] == len(close.items)
        assert out.lineage == frozenset().union(*(item.lineage for item in close.items))
        if function == "count":
            assert out.values["count_value"] == len(close.items)
        else:
            want = max_distribution([item.distribution("value") for item in close.items])
            assert out.distribution("max_value").mean() == want.mean()
