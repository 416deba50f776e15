"""Mobile-reader trace simulator for the RFID application.

Because the paper's warehouse traces are unavailable, this simulator
produces behaviourally equivalent raw streams: a mobile reader sweeps
the storage area along a lawnmower path and, at each scan, reports the
tag ids it happened to detect -- object tags and shelf (reference) tags
alike -- according to the logistic detection model.  The ground truth
stays inside the simulator, which is what lets benchmarks measure
inference error exactly (Figure 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.distributions import as_rng

from .sensor_model import DetectionModel
from .world import WarehouseWorld

__all__ = ["RFIDReading", "MobileReaderSimulator", "lawnmower_path"]


@dataclass(frozen=True)
class RFIDReading:
    """One scan of the mobile reader: what the device actually outputs."""

    timestamp: float
    reader_x: float
    reader_y: float
    detected_object_ids: Tuple[str, ...]
    detected_shelf_ids: Tuple[str, ...]

    @property
    def reader_position(self) -> np.ndarray:
        return np.array([self.reader_x, self.reader_y], dtype=float)

    @property
    def n_detections(self) -> int:
        return len(self.detected_object_ids) + len(self.detected_shelf_ids)


def lawnmower_path(
    bounds: Tuple[float, float, float, float],
    lane_spacing: float,
    speed: float,
    scan_interval: float,
) -> Iterator[Tuple[float, float, float]]:
    """Yield ``(timestamp, x, y)`` scan points along a lawnmower sweep.

    The reader moves at ``speed`` feet/second along horizontal lanes
    spaced ``lane_spacing`` feet apart, scanning every ``scan_interval``
    seconds, and restarts the sweep when it reaches the last lane.
    """
    if lane_spacing <= 0 or speed <= 0 or scan_interval <= 0:
        raise ValueError("lane_spacing, speed and scan_interval must be positive")
    x_min, y_min, x_max, y_max = bounds
    lanes = max(int(math.floor((y_max - y_min) / lane_spacing)) + 1, 1)
    step = speed * scan_interval
    timestamp = 0.0
    while True:
        for lane in range(lanes):
            y = min(y_min + lane * lane_spacing, y_max)
            xs = np.arange(x_min, x_max + step, step)
            if lane % 2 == 1:
                xs = xs[::-1]
            for x in xs:
                yield (timestamp, float(np.clip(x, x_min, x_max)), float(y))
                timestamp += scan_interval


class MobileReaderSimulator:
    """Generates noisy RFID readings from a ground-truth warehouse world.

    Parameters
    ----------
    world:
        The ground-truth world (objects, shelves, motion).
    detection:
        Detection model shared with the inference side.  Using the same
        model for generation and inference isolates the error measured
        in Figure 3 to the sampling approximation, mirroring how the
        paper calibrates against a known trace.
    lane_spacing / speed / scan_interval:
        Reader sweep parameters.
    evolve_world:
        Whether ground truth moves between scans (objects changing
        shelves).
    read_capacity:
        Optional tag-contention model: when more than this many tags are
        within the reader's effective range, every tag's detection
        probability is scaled down proportionally ("contention among
        tags" in Section 2.1).  ``None`` disables contention.  The
        inference side does not know about contention, so denser
        deployments are genuinely harder -- the effect Figure 3(a)
        measures as error growing with the number of objects.
    rng:
        Random generator or seed for detection noise.
    """

    def __init__(
        self,
        world: WarehouseWorld,
        detection: Optional[DetectionModel] = None,
        lane_spacing: float = 10.0,
        speed: float = 4.0,
        scan_interval: float = 0.5,
        evolve_world: bool = True,
        read_capacity: Optional[int] = None,
        rng: np.random.Generator | int | None = None,
    ):
        if read_capacity is not None and read_capacity < 1:
            raise ValueError("read_capacity must be at least 1 when given")
        self.world = world
        self.detection = detection or DetectionModel()
        self.lane_spacing = lane_spacing
        self.speed = speed
        self.scan_interval = scan_interval
        self.evolve_world = evolve_world
        self.read_capacity = read_capacity
        self._rng = as_rng(rng)
        self._path = lawnmower_path(world.bounds(), lane_spacing, speed, scan_interval)
        self._last_timestamp: Optional[float] = None
        self._effective_range = self.detection.effective_range()

    def _contention_factor(self, reader: np.ndarray) -> float:
        """Return the detection-probability scaling due to tag contention."""
        if self.read_capacity is None:
            return 1.0
        positions = [obj.position for obj in self.world.objects.values()]
        positions += [shelf.position for shelf in self.world.shelves.values()]
        stacked = np.vstack(positions)
        in_range = int(np.count_nonzero(np.linalg.norm(stacked - reader, axis=1) <= self._effective_range))
        if in_range <= self.read_capacity:
            return 1.0
        return self.read_capacity / float(in_range)

    def _detect(self, reader: np.ndarray, position: np.ndarray, factor: float) -> bool:
        distance = float(np.linalg.norm(position - reader))
        return bool(self._rng.random() < factor * self.detection.probability(distance))

    def next_reading(self) -> RFIDReading:
        """Advance the reader by one scan and return the resulting reading."""
        timestamp, x, y = next(self._path)
        if self.evolve_world and self._last_timestamp is not None:
            self.world.step(timestamp - self._last_timestamp)
        self._last_timestamp = timestamp
        reader = np.array([x, y])
        factor = self._contention_factor(reader)
        detected_objects = tuple(
            obj.tag_id
            for obj in self.world.objects.values()
            if self._detect(reader, obj.position, factor)
        )
        detected_shelves = tuple(
            shelf.shelf_id
            for shelf in self.world.shelves.values()
            if self._detect(reader, shelf.position, factor)
        )
        return RFIDReading(
            timestamp=timestamp,
            reader_x=x,
            reader_y=y,
            detected_object_ids=detected_objects,
            detected_shelf_ids=detected_shelves,
        )

    def readings(self, count: int) -> List[RFIDReading]:
        """Return the next ``count`` readings."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.next_reading() for _ in range(count)]

    def __iter__(self) -> Iterator[RFIDReading]:
        while True:
            yield self.next_reading()
