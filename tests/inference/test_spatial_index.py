"""Tests for the grid-cell spatial index (``grid_cells`` / ``cells_in_range``).

``GridIndex`` -- the dict-of-cells index the arrays replaced -- is kept
here as the reference for range queries.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.inference import FactorizedParticleFilter, cells_in_range, grid_cells
from repro.rfid import build_object_model


class GridIndex:
    """A uniform 2-D grid index of object identifiers (the reference)."""

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


def query(points, x, y, radius, cell_size):
    cells = grid_cells(np.array(points, dtype=float).reshape(-1, 2), cell_size)
    return set(np.flatnonzero(cells_in_range(cells, x, y, radius, cell_size)).tolist())


class TestGridCells:
    def test_insert_and_query(self):
        assert query([(5.0, 5.0), (55.0, 5.0)], 6.0, 6.0, 5.0, 10.0) == {0}

    def test_query_is_conservative_superset(self, rng):
        points = rng.uniform(0, 100, size=(200, 2))
        cx, cy, radius = 40.0, 60.0, 12.0
        truly_inside = set(np.flatnonzero(np.hypot(*(points - [cx, cy]).T) <= radius).tolist())
        assert truly_inside <= query(points, cx, cy, radius, 5.0)

    def test_moving_an_object_moves_its_cell(self):
        assert query([(0.5, 0.5)], 0.5, 0.5, 2.0, 1.0) == {0}
        assert query([(99.5, 99.5)], 0.5, 0.5, 2.0, 1.0) == set()
        assert query([(99.5, 99.5)], 99.0, 99.0, 2.0, 1.0) == {0}

    def test_negative_coordinates_supported(self):
        assert grid_cells(np.array([[-10.0, -20.0]]), 3.0).tolist() == [[-4, -7]]
        assert query([(-10.0, -20.0)], -10.0, -20.0, 1.0, 3.0) == {0}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FactorizedParticleFilter(index_cell_size=0.0)
        with pytest.raises(ValueError):
            cells_in_range(np.zeros((1, 2), dtype=np.int64), 0.0, 0.0, -1.0, 1.0)


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
    return cell_size, points, x, y, radius


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scenes())
# x - r is exactly -30 here, but x / c - r / c rounds below -10: the corner
# must be offset before dividing.
@example((3.0, [(-31.0, 0.0)], -29.92, 0.0, 0.08))
def test_cell_mask_matches_the_grid_index(scene):
    cell_size, points, x, y, radius = scene
    index = GridIndex(cell_size)
    for i, (px, py) in enumerate(points):
        index.update(i, px, py)
    assert query(points, x, y, radius, cell_size) == set(index.query_radius(x, y, radius))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(scenes())
def test_filter_candidates_match_the_grid_index(scene):
    cell_size, points, x, y, radius = scene
    # Each variable's prior is two particles on its point, so its estimate
    # is exactly the point.
    priors = iter(points)
    model = build_object_model(
        (-200.0, -200.0, 200.0, 200.0), prior=lambda n, _rng: np.tile(next(priors), (n, 1))
    )
    fpf = FactorizedParticleFilter(n_particles=2, index_cell_size=cell_size, rng=0)
    index = GridIndex(cell_size)
    for i, (px, py) in enumerate(points):
        fpf.add_variable(i, model)
        index.update(i, px, py)
    assert fpf.candidates((x, y, radius)) == sorted(index.query_radius(x, y, radius))
    assert fpf.candidates(None) == list(range(len(points)))
