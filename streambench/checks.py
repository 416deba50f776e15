"""Reference computations and result comparison.

``hot_sum``, ``tag_having`` and ``mix_sum`` are recomputed with numpy from
the generated distribution parameters (``inputs.py``), independently of
``repro``'s operators.  Every window's mean and variance must agree to
1e-9 (relative to the magnitude, with an absolute floor of 1e-9).  The
networked and sharded workloads are compared with an in-process
``QuerySession`` run of the same inputs, to the same tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

import queries as Q

TOLERANCE = 1e-9


def close(a: float, b: float) -> bool:
    return abs(float(a) - float(b)) <= TOLERANCE * max(1.0, abs(float(b)))


def _sf(threshold: float, mean, var):
    """P(N(mean, var) > threshold), via the complementary error function."""
    return 0.5 * math.erfc((threshold - mean) / math.sqrt(2.0 * var))


@dataclass
class Window:
    start: float
    end: float
    count: int
    mean: float
    var: float
    #: Index of the input tuple whose arrival closes the window; -1 when
    #: only the end-of-input flush closes it.
    close_index: int
    extra: Dict[str, object] = field(default_factory=dict)


def _runs(window_ids: np.ndarray):
    """(begin, end) positions of each run of equal window ids."""
    if len(window_ids) == 0:
        return []
    starts = [0] + (np.flatnonzero(np.diff(window_ids)) + 1).tolist()
    ends = starts[1:] + [len(window_ids)]
    return list(zip(starts, ends))


def hot_sum(readings, n: int) -> List[Window]:
    """Tumbling SUM over the readings whose P(value > threshold) passes."""
    mu, sigma, ts = readings.mu[:n], readings.sigma[:n], readings.ts[:n]
    p = np.array([_sf(Q.HOT_THRESHOLD, m, s * s) for m, s in zip(mu, sigma)])
    members = np.flatnonzero(p >= Q.HOT_PROBABILITY)
    ids = np.floor_divide(ts[members], Q.HOT_WINDOW).astype(np.int64)
    runs = _runs(ids)
    out = []
    for k, (b, e) in enumerate(runs):
        rows = members[b:e]
        start = float(ids[b]) * Q.HOT_WINDOW
        out.append(
            Window(
                start=start,
                end=start + Q.HOT_WINDOW,
                count=len(rows),
                mean=float(np.sum(mu[rows])),
                var=float(np.sum(sigma[rows] ** 2)),
                close_index=int(members[runs[k + 1][0]]) if k + 1 < len(runs) else -1,
            )
        )
    return out


def tag_having(readings, n: int) -> List[Window]:
    """Per-window, per-tag SUM kept when P(SUM > limit) reaches the confidence."""
    mu, sigma, ts, tag = readings.mu[:n], readings.sigma[:n], readings.ts[:n], readings.tag[:n]
    ids = np.floor_divide(ts, Q.TAG_WINDOW).astype(np.int64)
    runs = _runs(ids)
    out = []
    for k, (b, e) in enumerate(runs):
        start = float(ids[b]) * Q.TAG_WINDOW
        closer = runs[k + 1][0] if k + 1 < len(runs) else -1
        for code in sorted(set(tag[b:e].tolist())):
            rows = b + np.flatnonzero(tag[b:e] == code)
            mean = float(np.sum(mu[rows]))
            var = float(np.sum(sigma[rows] ** 2))
            prob = _sf(Q.TAG_LIMIT, mean, var)
            if prob < Q.TAG_CONFIDENCE:
                continue
            out.append(
                Window(
                    start=start,
                    end=start + Q.TAG_WINDOW,
                    count=len(rows),
                    mean=mean,
                    var=var,
                    close_index=closer,
                    extra={"group": f"tag{code}", "having_probability": prob},
                )
            )
    return out


def mix_sum(mixtures, n: int) -> List[Window]:
    """Tumbling SUM over mixtures: moments add for independent summands."""
    ids = np.floor_divide(mixtures.ts[:n], Q.MIX_WINDOW).astype(np.int64)
    runs = _runs(ids)
    out = []
    for k, (b, e) in enumerate(runs):
        start = float(ids[b]) * Q.MIX_WINDOW
        out.append(
            Window(
                start=start,
                end=start + Q.MIX_WINDOW,
                count=e - b,
                mean=float(np.sum(mixtures.mean[b:e])),
                var=float(np.sum(mixtures.var[b:e])),
                close_index=runs[k + 1][0] if k + 1 < len(runs) else -1,
            )
        )
    return out


def closing_latencies(windows, arrivals, dues, tick: int) -> List[float]:
    """Result latency from the due time of the tick that carried each window's closer.

    ``arrivals[i]`` is when result ``i`` reached the consumer; windows
    closed only by the end-of-segment flush are left out.
    """
    return [
        arrival - dues[window.close_index // tick]
        for window, arrival in zip(windows, arrivals)
        if window.close_index >= 0
    ]


def _window_matches(item, window: Window) -> bool:
    values = item.values
    dist = item.distribution("sum_value")
    ok = (
        close(values["window_start"], window.start)
        and close(values["window_end"], window.end)
        and values["window_count"] == window.count
        and close(values["sum_value_mean"], window.mean)
        and close(dist.mean(), window.mean)
        and close(dist.variance(), window.var)
    )
    for key, expected in window.extra.items():
        got = values.get(key)
        ok = ok and (close(got, expected) if isinstance(expected, float) else got == expected)
    return ok


def check_windows(results: Sequence, expected: Sequence[Window], tally, label: str) -> None:
    """One tally operation per expected window; extra results fail too.

    Results of one window may arrive in any order (grouped queries), so
    both sides are compared in (window_start, group) order.
    """

    def key_result(item):
        return (round(item.values["window_start"], 9), str(item.values.get("group", "")))

    def key_window(window):
        return (round(window.start, 9), str(window.extra.get("group", "")))

    got = sorted(results, key=key_result)
    want = sorted(expected, key=key_window)
    for i, window in enumerate(want):
        if i >= len(got):
            tally.fail(f"{label}: missing window {i} of {len(want)}", len(want) - i)
            return
        tally.check(_window_matches(got[i], window), f"{label}: window {i} differs from reference")
    if len(got) > len(want):
        tally.fail(f"{label}: {len(got) - len(want)} unexpected results", len(got) - len(want))


def _tuple_equal(a, b) -> bool:
    if set(a.values) != set(b.values) or set(a.uncertain) != set(b.uncertain):
        return False
    for key, value in a.values.items():
        other = b.values[key]
        if isinstance(value, float) or isinstance(other, float):
            if not close(value, other):
                return False
        elif value != other:
            return False
    for key in a.uncertain:
        da, db = a.distribution(key), b.distribution(key)
        if not (close(da.mean(), db.mean()) and close(da.variance(), db.variance())):
            return False
    return True


def session_reference(tuples, chunk: int):
    """``hot_sum`` over ``tuples`` in a single-process, in-process session."""
    from repro import QuerySession

    session = QuerySession(batch_size=1024)
    Q.declare_readings(session)
    query = session.register("hot_sum", Q.HOT_SUM)
    for i in range(0, len(tuples), chunk):
        session.push_many("readings", tuples[i : i + chunk])
    session.flush()
    return query.results


def check_same(results: Sequence, reference: Sequence, tally, label: str) -> None:
    """Compare a result list with a reference run's, one operation per reference result."""
    for i, ref in enumerate(reference):
        if i >= len(results):
            tally.fail(f"{label}: missing result {i} of {len(reference)}", len(reference) - i)
            return
        tally.check(_tuple_equal(results[i], ref), f"{label}: result {i} differs from reference")
    if len(results) > len(reference):
        extra = len(results) - len(reference)
        tally.fail(f"{label}: {extra} unexpected results", extra)
