"""Repository-wide pytest hooks: a hard per-test deadline.

Every setup, call and teardown phase of every test (under ``tests/`` and
``benchmarks/``) must finish within ``DEADLINE_S`` seconds.  When a phase
overruns, ``SIGALRM`` raises :class:`DeadlineExceeded` in the test's
own frame, so the hang is reported as a named failure with its traceback
and the run goes on.  If the alarm cannot interrupt the stuck code (a
C call that never returns to the interpreter), ``faulthandler`` dumps
every thread's stack ``GRACE_S`` seconds later and ends the process.

The deadline is fixed, not configurable: it is 30 times the slowest
test's ``--durations`` time (10 s on a 2-vCPU machine), so it only ever
fires on a hang.  Forked children (shard workers) are unaffected: an
alarm is not inherited across ``fork`` and the faulthandler watchdog
thread does not exist in the child.
"""

from __future__ import annotations

import faulthandler
import os
import signal
import sys

import pytest

DEADLINE_S = 300
GRACE_S = 30


class DeadlineExceeded(Exception):
    """A test phase ran past the per-test deadline."""


#: A copy of the terminal's stderr, taken before output capture starts, so
#: that faulthandler's dump is not swallowed by a captured test phase.
_stderr_fd = None


def pytest_configure(config):
    global _stderr_fd
    _stderr_fd = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(_stderr_fd)


def _within_deadline(item: pytest.Item, phase: str):
    if not hasattr(signal, "SIGALRM"):
        return (yield)

    def expire(signum, frame):
        raise DeadlineExceeded(f"{item.nodeid} {phase} ran past the {DEADLINE_S} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    faulthandler.dump_traceback_later(DEADLINE_S + GRACE_S, file=_stderr_fd, exit=True)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    return (yield from _within_deadline(item, "setup"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    return (yield from _within_deadline(item, "call"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    return (yield from _within_deadline(item, "teardown"))
