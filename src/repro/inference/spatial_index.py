"""Grid-cell spatial index over tracked objects, as arrays.

The paper's second particle-filter optimisation: "spatial indexing can
further limit the set of variables that must be processed at each time
step, since a reader can only observe a small set of objects at a
time."  Each object is filed under the grid cell of its location
estimate (one row of an ``(n, 2)`` integer array), and a range query
around the reader is one vectorised mask over those cells.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["grid_cells", "cells_in_range"]


def grid_cells(points: np.ndarray, cell_size: float) -> np.ndarray:
    """Return the ``(n, 2)`` int64 grid cells ``floor(xy / cell_size)`` of ``(n, >=2)`` points."""
    return np.floor(np.asarray(points, dtype=float)[:, :2] / cell_size).astype(np.int64)


def cells_in_range(
    cells: np.ndarray, x: float, y: float, radius: float, cell_size: float
) -> np.ndarray:
    """Mask the cells overlapping the bounding square of the disc around ``(x, y)``.

    The answer is a superset of the objects truly within ``radius``: a
    cell qualifies when it lies in ``[floor((x - r) / c), floor((x + r) / c)]``
    on both axes, the corners offset before dividing.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    low_x, low_y = math.floor((x - radius) / cell_size), math.floor((y - radius) / cell_size)
    high_x, high_y = math.floor((x + radius) / cell_size), math.floor((y + radius) / cell_size)
    cx, cy = cells[:, 0], cells[:, 1]
    return (cx >= low_x) & (cx <= high_x) & (cy >= low_y) & (cy <= high_y)
