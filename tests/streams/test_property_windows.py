"""Property-based tests for window semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import (
    StreamTuple,
    TumblingCountWindow,
    TumblingTimeWindow,
    iter_windows,
)


@given(
    n_tuples=st.integers(min_value=0, max_value=200),
    size=st.integers(min_value=1, max_value=17),
)
@settings(max_examples=60, deadline=None)
def test_tumbling_count_windows_partition_the_stream(n_tuples, size):
    items = [StreamTuple(timestamp=float(i), values={"i": i}) for i in range(n_tuples)]
    windows = list(iter_windows(TumblingCountWindow(size), items))
    # Every tuple appears exactly once, in order.
    flattened = [t.value("i") for w in windows for t in w.items]
    assert flattened == list(range(n_tuples))
    # All windows except possibly the last are full.
    for w in windows[:-1]:
        assert len(w.items) == size
    if windows:
        assert 1 <= len(windows[-1].items) <= size


@given(
    gaps=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=100),
    length=st.floats(min_value=0.5, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_tumbling_time_windows_cover_all_tuples_and_respect_boundaries(gaps, length):
    timestamps = []
    now = 0.0
    for gap in gaps:
        now += gap
        timestamps.append(now)
    items = [StreamTuple(timestamp=t, values={"t": t}) for t in timestamps]
    windows = list(iter_windows(TumblingTimeWindow(length), items))
    flattened = [t.value("t") for w in windows for t in w.items]
    assert flattened == timestamps
    for w in windows:
        assert abs((w.end - w.start) - length) < 1e-9 * max(1.0, abs(w.end))
        for item in w.items:
            assert w.start - 1e-9 <= item.timestamp < w.end + 1e-9


@given(
    gaps=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=100),
    length=st.floats(min_value=0.5, max_value=10.0),
    chunk=st.integers(min_value=1, max_value=17),
    use_count_window=st.booleans(),
    size=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_bulk_insertion_equals_per_tuple_insertion(
    gaps, length, chunk, use_count_window, size
):
    """`WindowBuffer.add_many` closes exactly the windows `add` would."""
    timestamps = []
    now = 0.0
    for gap in gaps:
        now += gap
        timestamps.append(now)
    items = [StreamTuple(timestamp=t, values={"t": t}) for t in timestamps]
    spec = TumblingCountWindow(size) if use_count_window else TumblingTimeWindow(length)

    per_tuple = spec.new_buffer()
    expected = []
    for item in items:
        expected.extend(per_tuple.add(item))
    expected.extend(per_tuple.flush())

    bulk = spec.new_buffer()
    actual = []
    for start in range(0, len(items), chunk):
        actual.extend(bulk.add_many(items[start : start + chunk]))
    actual.extend(bulk.flush())

    assert [(w.start, w.end) for w in actual] == [(w.start, w.end) for w in expected]
    assert [
        [t.tuple_id for t in w.items] for w in actual
    ] == [[t.tuple_id for t in w.items] for w in expected]
