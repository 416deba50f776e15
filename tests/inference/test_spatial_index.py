"""Tests for the filter's spatial index: a range query over the arena's estimates.

A scan's candidates are the variables whose estimate lies within the
sensing disc, plus the detected ones.  The grid-cell rule the disc test
replaced -- each estimate filed under its grid cell, every cell that
overlaps the disc's bounding square kept -- stays here as the reference
the disc must lie within: ``grid_cells`` / ``cells_in_range`` (the array
form) and ``GridIndex`` (the dict-of-cells form the arrays replaced).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.inference import FactorizedParticleFilter
from repro.rfid import build_object_model


def grid_cells(points, cell_size):
    """Return the ``(n, 2)`` int64 grid cells ``floor(xy / cell_size)`` of ``(n, >=2)`` points."""
    return np.floor(np.asarray(points, dtype=float)[:, :2] / cell_size).astype(np.int64)


def cells_in_range(cells, x, y, radius, cell_size):
    """Mask the cells overlapping the bounding square of the disc around ``(x, y)``.

    The corners are offset before dividing, so the cells are exactly those
    ``math.floor(x / cell_size)`` gives.
    """
    low_x, low_y = math.floor((x - radius) / cell_size), math.floor((y - radius) / cell_size)
    high_x, high_y = math.floor((x + radius) / cell_size), math.floor((y + radius) / cell_size)
    cx, cy = cells[:, 0], cells[:, 1]
    return (cx >= low_x) & (cx <= high_x) & (cy >= low_y) & (cy <= high_y)


class GridIndex:
    """A uniform 2-D grid index of object identifiers (the dict-of-cells reference)."""

    def __init__(self, cell_size):
        self.cell_size = float(cell_size)
        self._cell_of = {}
        self._members = {}

    def _cell(self, x, y):
        return (int(math.floor(x / self.cell_size)), int(math.floor(y / self.cell_size)))

    def update(self, object_id, x, y):
        old = self._cell_of.get(object_id)
        if old is not None:
            self._members[old].discard(object_id)
        cell = self._cell(x, y)
        self._cell_of[object_id] = cell
        self._members.setdefault(cell, set()).add(object_id)

    def query_radius(self, x, y, radius):
        """Every object filed in a cell overlapping the disc's bounding square.

        The scan is clipped to the occupied cells' bounding box, which
        only skips empty cells (and keeps huge radii cheap).
        """
        if not self._cell_of:
            return []
        xs, ys = zip(*self._cell_of.values())
        min_cx, min_cy = self._cell(x - radius, y - radius)
        max_cx, max_cy = self._cell(x + radius, y + radius)
        found = []
        for cx in range(max(min_cx, min(xs)), min(max_cx, max(xs)) + 1):
            for cy in range(max(min_cy, min(ys)), min(max_cy, max(ys)) + 1):
                found.extend(self._members.get((cx, cy), ()))
        return found


def cell_query(points, x, y, radius, cell_size):
    cells = grid_cells(np.array(points, dtype=float).reshape(-1, 2), cell_size)
    return set(np.flatnonzero(cells_in_range(cells, x, y, radius, cell_size)).tolist())


def filter_at(points, **kwargs):
    """A filter tracking one variable per point; each prior is two particles on its point.

    Each estimate is then exactly its point.
    """
    priors = iter(points)
    model = build_object_model(
        (-200.0, -200.0, 200.0, 200.0), prior=lambda n, _rng: np.tile(next(priors), (n, 1))
    )
    fpf = FactorizedParticleFilter(n_particles=2, rng=0, **kwargs)
    for i in range(len(points)):
        fpf.add_variable(i, model)
    return fpf


def within(fpf, x, y, radius):
    """Brute force: the variables whose arena estimate is within ``radius`` of ``(x, y)``."""
    estimates = fpf.estimates.tolist()
    return [i for i, (ex, ey) in enumerate(estimates) if math.hypot(ex - x, ey - y) <= radius]


class TestDiscQuery:
    def test_keeps_only_the_estimates_in_the_disc(self):
        points = [(5.0, 5.0), (55.0, 5.0), (10.0, 10.0), (6.0, 10.0)]
        fpf = filter_at(points)
        assert fpf.candidates((6.0, 6.0, 5.0)) == [0, 3]
        # The old cell rule also keeps (10, 10): its cell touches the bounding square.
        assert cell_query(points, 6.0, 6.0, 5.0, 10.0) == {0, 2, 3}

    def test_the_disc_is_closed_and_negative_coordinates_work(self):
        fpf = filter_at([(-10.0, -20.0), (-13.0, -24.0), (-13.0, -24.5)])
        assert fpf.candidates((-10.0, -20.0, 5.0)) == [0, 1]
        assert fpf.candidates((-10.0, -20.0, 0.0)) == [0]

    def test_without_the_index_or_a_region_every_variable_is_a_candidate(self):
        points = [(0.0, 0.0), (100.0, 100.0)]
        assert filter_at(points).candidates(None) == [0, 1]
        assert filter_at(points, use_spatial_index=False).candidates((0.0, 0.0, 1.0)) == [0, 1]

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            filter_at([(0.0, 0.0)]).candidates((0.0, 0.0, -1.0))


def test_cell_reference_is_a_conservative_superset(rng):
    points = rng.uniform(0, 100, size=(200, 2))
    cx, cy, radius = 40.0, 60.0, 12.0
    truly_inside = set(np.flatnonzero(np.hypot(*(points - [cx, cy]).T) <= radius).tolist())
    assert truly_inside <= cell_query(points, cx, cy, radius, 5.0)


CELL_SIZES = (0.5, 1.0, 3.0, 10.0)


def coordinates(cell_size):
    """Anywhere on a 60 x 60 ft grid around the origin, often exactly on a cell edge."""
    edges = int(30.0 / cell_size)
    return st.one_of(
        st.floats(-30.0, 30.0, allow_nan=False),
        st.integers(-edges, edges).map(lambda k: k * cell_size),
    )


@st.composite
def scenes(draw):
    cell_size = draw(st.sampled_from(CELL_SIZES))
    coordinate = coordinates(cell_size)
    points = draw(st.lists(st.tuples(coordinate, coordinate), max_size=30))
    x, y = draw(coordinate), draw(coordinate)
    radius = draw(
        st.one_of(st.just(0.0), st.floats(0.0, 15.0), st.just(1e6), st.integers(0, 5).map(float))
    )
    detected = draw(st.sets(st.integers(0, max(len(points) - 1, 0)))) if points else set()
    return cell_size, points, x, y, radius, detected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scenes())
# x - r is exactly -30 here, but x / c - r / c rounds below -10: the corner
# must be offset before dividing.
@example((3.0, [(-31.0, 0.0)], -29.92, 0.0, 0.08, set()))
def test_cell_reference_matches_the_grid_index(scene):
    cell_size, points, x, y, radius, _ = scene
    index = GridIndex(cell_size)
    for i, (px, py) in enumerate(points):
        index.update(i, px, py)
    assert cell_query(points, x, y, radius, cell_size) == set(index.query_radius(x, y, radius))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scenes())
@example((3.0, [(-31.0, 0.0), (-30.0, 0.0)], -29.92, 0.0, 0.08, {0}))
def test_disc_mask_matches_brute_force_and_lies_within_the_cells(scene):
    cell_size, points, x, y, radius, detected = scene
    fpf = filter_at(points)
    inside = within(fpf, x, y, radius)
    # A scan's rows: the disc, with the detected rows forced in.
    rows = fpf.step_observed(0.0, dict.fromkeys(detected), None, (x, y, radius))
    assert rows.tolist() == sorted(set(inside) | detected)
    assert set(inside) <= cell_query(points, x, y, radius, cell_size)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(scenes())
def test_filter_candidates_match_brute_force_distances(scene):
    _, points, x, y, radius, _ = scene
    fpf = filter_at(points)
    assert fpf.candidates((x, y, radius)) == within(fpf, x, y, radius)
    assert fpf.candidates(None) == list(range(len(points)))
