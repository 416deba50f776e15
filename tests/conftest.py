"""Shared pytest fixtures for the reproduction test suite."""

from __future__ import annotations

import os
import time

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


def _running(pid: int) -> bool:
    """True while ``pid`` runs; a zombie nobody reaped has exited."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - no procfs
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return state not in ("Z", "X")


def _still_running_after(pids, timeout: float):
    """Wait up to ``timeout`` s for every pid to exit; return those still running."""
    deadline = time.monotonic() + timeout
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    return [pid for pid in pids if _running(pid)]


@pytest.fixture
def still_running_after():
    """``still_running_after(pids, timeout) -> list`` of the pids that outlived it."""
    return _still_running_after
