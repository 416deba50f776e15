"""Shared pytest fixtures for the reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streams import TupleBatch


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    """A factory of deterministic generators with distinct seeds."""

    def make(seed: int = 0) -> np.random.Generator:
        return np.random.default_rng(1000 + seed)

    return make


def _process_one(op, item):
    """Run ``item`` through ``op`` as a one-row batch and return the outputs."""
    return list(op.process_batch(TupleBatch([item])))


@pytest.fixture
def process_one():
    """``process_one(op, item) -> list``: one tuple through an operator."""
    return _process_one
