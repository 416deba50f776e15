"""Ground-truth warehouse world for the RFID tracking application.

Section 2.1: a storage area contains shelves at known locations and
objects affixed with RFID tags at unknown locations; objects usually
stay on their shelf but occasionally move to another one.  A mobile
reader sweeps the area and produces noisy readings.

Because the paper's real warehouse traces are not available, this
module provides a synthetic but behaviourally equivalent world: it
maintains exact ground-truth object locations (so inference error can
be measured, as in Figure 3), moves objects between shelves with a
configurable rate, and records static attributes (weight, object type)
used by queries Q1 and Q2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.distributions import as_rng

__all__ = ["Shelf", "TaggedObject", "WarehouseWorld"]


@dataclass(frozen=True)
class Shelf:
    """A shelf tag at a fixed, known location (a reference object)."""

    shelf_id: str
    x: float
    y: float

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass
class TaggedObject:
    """A tagged object with ground-truth location and static attributes."""

    tag_id: str
    x: float
    y: float
    weight: float = 10.0
    object_type: str = "general"
    home_shelf: Optional[str] = None

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    @property
    def flammable(self) -> bool:
        return self.object_type == "flammable"


class WarehouseWorld:
    """A rectangular storage area with shelves and tagged objects.

    Parameters
    ----------
    width, height:
        Extent of the storage area in feet.
    shelf_grid:
        Number of shelf columns and rows; shelves are placed on a
        regular grid.
    n_objects:
        Number of tagged objects, assigned to shelves round-robin and
        jittered around the shelf location.
    move_rate:
        Expected number of shelf-to-shelf moves per object per second.
    flammable_fraction:
        Fraction of objects whose type is ``"flammable"`` (used by Q2).
    rng:
        Random generator or seed controlling the synthetic layout.
    """

    def __init__(
        self,
        width: float = 100.0,
        height: float = 50.0,
        shelf_grid: Tuple[int, int] = (10, 5),
        n_objects: int = 100,
        move_rate: float = 0.002,
        flammable_fraction: float = 0.2,
        weight_range: Tuple[float, float] = (5.0, 80.0),
        placement_jitter: float = 1.0,
        rng: np.random.Generator | int | None = None,
    ):
        if width <= 0 or height <= 0:
            raise ValueError("warehouse dimensions must be positive")
        if n_objects < 1:
            raise ValueError("the world needs at least one object")
        if not 0.0 <= flammable_fraction <= 1.0:
            raise ValueError("flammable_fraction must lie in [0, 1]")
        self.width = float(width)
        self.height = float(height)
        self.move_rate = float(move_rate)
        self.placement_jitter = float(placement_jitter)
        self._rng = as_rng(rng)

        cols, rows = shelf_grid
        if cols < 1 or rows < 1:
            raise ValueError("shelf grid must have at least one column and one row")
        self.shelves: Dict[str, Shelf] = {}
        xs = np.linspace(width / (2 * cols), width - width / (2 * cols), cols)
        ys = np.linspace(height / (2 * rows), height - height / (2 * rows), rows)
        index = 0
        for yi in ys:
            for xi in xs:
                shelf_id = f"S{index:03d}"
                self.shelves[shelf_id] = Shelf(shelf_id, float(xi), float(yi))
                index += 1

        shelf_ids = list(self.shelves.keys())
        lo_w, hi_w = weight_range
        self.objects: Dict[str, TaggedObject] = {}
        for i in range(n_objects):
            shelf = self.shelves[shelf_ids[i % len(shelf_ids)]]
            jitter = self._rng.normal(0.0, placement_jitter, size=2)
            x = float(np.clip(shelf.x + jitter[0], 0.0, width))
            y = float(np.clip(shelf.y + jitter[1], 0.0, height))
            object_type = "flammable" if self._rng.random() < flammable_fraction else "general"
            self.objects[f"O{i:05d}"] = TaggedObject(
                tag_id=f"O{i:05d}",
                x=x,
                y=y,
                weight=float(self._rng.uniform(lo_w, hi_w)),
                object_type=object_type,
                home_shelf=shelf.shelf_id,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_shelves(self) -> int:
        return len(self.shelves)

    def object_ids(self) -> List[str]:
        return list(self.objects.keys())

    def shelf_ids(self) -> List[str]:
        return list(self.shelves.keys())

    def true_position(self, tag_id: str) -> np.ndarray:
        """Return the ground-truth position of an object or shelf tag."""
        if tag_id in self.objects:
            return self.objects[tag_id].position
        if tag_id in self.shelves:
            return self.shelves[tag_id].position
        raise KeyError(f"unknown tag {tag_id!r}")

    def shelf_positions(self) -> Dict[str, np.ndarray]:
        return {shelf_id: shelf.position for shelf_id, shelf in self.shelves.items()}

    def bounds(self) -> Tuple[float, float, float, float]:
        """Return ``(x_min, y_min, x_max, y_max)`` of the storage area."""
        return (0.0, 0.0, self.width, self.height)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(self, dt: float) -> List[str]:
        """Advance ground truth by ``dt`` seconds; return the moved objects.

        Each object moves to a uniformly chosen different shelf with
        probability ``1 - exp(-move_rate * dt)``, landing near the new
        shelf with the same placement jitter used at construction time.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if dt == 0 or self.move_rate == 0:
            return []
        move_probability = 1.0 - math.exp(-self.move_rate * dt)
        shelf_ids = self.shelf_ids()
        moved: List[str] = []
        for obj in self.objects.values():
            if self._rng.random() >= move_probability:
                continue
            candidates = [sid for sid in shelf_ids if sid != obj.home_shelf]
            target = self.shelves[candidates[self._rng.integers(len(candidates))]]
            jitter = self._rng.normal(0.0, self.placement_jitter, size=2)
            obj.x = float(np.clip(target.x + jitter[0], 0.0, self.width))
            obj.y = float(np.clip(target.y + jitter[1], 0.0, self.height))
            obj.home_shelf = target.shelf_id
            moved.append(obj.tag_id)
        return moved
