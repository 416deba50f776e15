"""Harness pieces shared by every workload: clocks, load generation,
percentiles, span tracing, process hygiene and the set-up probe.

Nothing here imports ``repro``: the harness must be importable (and fail
cleanly) in a checkout that holds only the benchmark.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Benchmark scratch space inside the checkout (checkpoints, traces).
RUN_DIR = os.path.join(ROOT, ".bench_run")

clock = time.perf_counter


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (numpy's default)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def host_calibration_s(fraction: float = 1.0) -> float:
    """Seconds for ``fraction`` of a fixed reference job.

    The whole job is 100 000 turns of a pure-Python loop and 2 000 calls
    on a small numpy array.  It uses nothing from ``repro``, so no change
    to the program moves it; it moves only with the host's speed.
    """
    t0 = clock()
    acc = 0
    for i in range(int(100_000 * fraction)):
        acc += i * i % 7
    a = np.arange(64.0)
    for _ in range(int(2_000 * fraction)):
        a = np.sqrt(a * 1.0001 + 1.0)
        a.sum()
    return clock() - t0


class HostMeter:
    """The host's speed, sampled all through a run with the reference job.

    Each sample is the job's time, scaled to the whole job, stamped with
    when it was taken.  :meth:`around` gives the median of the samples
    taken during an interval and ``margin`` seconds either side of it:
    the host's speed while a pass or segment ran.
    """

    #: Fraction of the job run between open-loop ticks and while a
    #: set-up probe starts.
    SLICE = 0.25

    def __init__(self) -> None:
        self.samples: List[tuple] = []

    def sample(self, fraction: float = 1.0) -> float:
        start = clock()
        seconds = host_calibration_s(fraction) / fraction
        self.samples.append((start, seconds))
        return seconds

    def around(self, start: float, end: float, margin: float = 2.0) -> float:
        near = [s for t, s in self.samples if start - margin <= t <= end + margin]
        return median(near or [s for _, s in self.samples])

    def overall(self) -> float:
        return median([s for _, s in self.samples])


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class OpenLoop:
    """Send ticks on a fixed schedule that does not slow when the system does.

    ``send(k)`` is called for tick ``k`` at (or after) its due time; the
    due time of every tick is kept so results can be timed from the
    moment their closing input was *due*, which charges a stall to every
    tick it delays.  Between ticks the generator spins instead of
    sleeping: on the development VM a vCPU left idle between ticks came
    back slowly, which doubled p90 latency and made it swing from run to
    run.  The spin calls ``os.sched_yield()``, which releases the
    interpreter lock and the CPU on every turn, so a thread that delivers
    results (the TCP subscriber, the shard reply readers) takes over at
    once when it wakes.
    """

    def __init__(self, period_s: float, meter: "HostMeter | None" = None):
        self.period = period_s
        self.meter = meter
        self.span = (0.0, 0.0)
        self.dues: List[float] = []
        self.lags: List[float] = []
        self.current_due = 0.0
        #: Filled by :meth:`arrival` while the ticks run.
        self.latencies: List[float] = []
        self._running = False

    def arrival(self) -> None:
        """Time a result delivered now from the due time of the current tick.

        For a consumer called synchronously inside ``send`` this is the
        tick whose input released the result; results delivered after
        the last tick (by the closing flush) are not timed.
        """
        if self._running:
            self.latencies.append(clock() - self.current_due)

    def run(self, n_ticks: int, send: Callable[[int], None]) -> None:
        start = clock() + 0.002
        self._running = True
        slice_s = 0.0
        try:
            for k in range(n_ticks):
                due = start + k * self.period
                # One slice of the reference job per tick, when it ends
                # well before the tick is due: the host's speed while
                # the segment runs.
                if self.meter is not None and due - clock() > 3 * slice_s + 0.002:
                    slice_s = self.meter.sample(HostMeter.SLICE) * HostMeter.SLICE
                while clock() < due:
                    os.sched_yield()
                self.lags.append(clock() - due)
                self.dues.append(due)
                self.current_due = due
                send(k)
        finally:
            self._running = False
            self.span = (start, clock())


# ----------------------------------------------------------------------
# Span tracing (the traced run only)
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span is ``(name, start, end, parent index, chunk id)``; spans of one
    input chunk share its chunk id.  With ``enabled=False`` every call is
    a no-op so the untraced passes pay nothing.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.chunk = 0

    def begin(self, name: str) -> int:
        if not self.enabled:
            return -1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.chunk])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index][2] = clock()
        self._stack.pop()

    def span(self, name: str, fn: Callable, *args):
        index = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(index)

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name: each span's duration minus its children's coverage."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        out: Dict[str, List[float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out.setdefault(name, []).append(max(0.0, end - start - child_cover[i]))
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "chunk": c}
            for n, s, e, p, c in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(rows, handle)


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's reaped children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def repro_segments() -> List[str]:
    """Shared-memory ring segments created by this process (``repro-ring-<pid>-*``)."""
    prefix = f"repro-ring-{os.getpid()}-"
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except FileNotFoundError:
        return []


def stop_resource_tracker() -> None:
    """Stop and reap the stdlib's shared-memory tracker process, if running.

    ``multiprocessing.shared_memory`` starts it on first use; stopping it
    here means the run ends with no process of its own still alive.
    Call only after the leak check: a stopping tracker unlinks what it
    still tracks.
    """
    if "multiprocessing.resource_tracker" in sys.modules:
        sys.modules["multiprocessing.resource_tracker"]._resource_tracker._stop()


def live_children() -> List[int]:
    """Pids of this process's children that are still running."""
    path = f"/proc/{os.getpid()}/task/{os.getpid()}/children"
    try:
        with open(path) as handle:
            return [int(p) for p in handle.read().split()]
    except OSError:
        return []


# ----------------------------------------------------------------------
# Child processes: the TCP server, and set-up probes (fresh interpreters
# timed until they are ready for the first input)
# ----------------------------------------------------------------------
class ServerProcess:
    """``server_proc.py`` (a StreamServer) as a child process.

    The child starts at once; :attr:`address` waits for it to listen, so
    the caller can import and prepare in the meantime.  ``close()``
    stops it and returns its peak RSS in MB.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_proc.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        )
        self._address = None
        self.peak = 0.0

    @property
    def address(self) -> str:
        """Blocks until the server prints its listening address."""
        if self._address is None:
            self._address = self.proc.stdout.readline().strip()
            if not self._address:
                self.close()
                raise RuntimeError("the server process did not start")
        return self._address

    def close(self) -> float:
        """Stop the server (idempotent); returns its peak RSS in MB."""
        if self.proc.poll() is not None:
            return self.peak
        self.peak = 0.0
        try:
            self.proc.stdin.close()
            line = self.proc.stdout.readline()
            self.proc.wait(timeout=30)
            if line:
                self.peak = json.loads(line)["peak_rss_mb"]
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        return self.peak


def probe_setup(workload: str, seed: int, repeats: int, meter: HostMeter):
    """Wall seconds from spawning ``setup_probe.py`` until it prints ``ready``.

    Returns ``(start, end, seconds)`` per probe.  While a probe starts up
    on one vCPU, this process samples the host with small slices of the
    reference job on the other, instead of blocking: a vCPU left idle
    comes back slowly, and the first sample after the wait would read a
    host slower than the one the probe ran on.  A probe's time is late
    by at most one slice (about 6 ms).
    """
    script = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(repeats):
        meter.sample()
        t0 = clock()
        proc = subprocess.Popen(
            [sys.executable, script, workload, str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        )
        try:
            while not select.select([proc.stdout], [], [], 0)[0] and clock() - t0 < 60:
                meter.sample(HostMeter.SLICE)
            line = proc.stdout.readline()
            elapsed = clock() - t0
            proc.stdin.close()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed ({line.strip()!r})")
        samples.append((t0, t0 + elapsed, elapsed))
    meter.sample()
    return samples


def wait_for_stdin_close(spin: bool = False) -> None:
    """Wait until the parent closes our stdin (probe and server processes).

    With ``spin`` the thread polls instead of blocking, yielding the
    interpreter lock and the CPU on every turn, so the process's vCPU
    never idles (see :class:`OpenLoop`).
    """
    if spin:
        while not select.select([sys.stdin], [], [], 0)[0]:
            for _ in range(200):
                os.sched_yield()
    try:
        sys.stdin.read()
    except (OSError, ValueError):
        pass


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> None:
        if condition:
            self.ok()
        else:
            self.fail(reason)


def latency_summary(
    segments: Sequence[Sequence[float]], groups: "Sequence[int] | None" = None
) -> Dict[str, float]:
    """Result latency percentiles over a run's open-loop segments, in ms.

    Segments of one group (``groups[i]`` for segment ``i``; one group if
    not given) replay the same inputs, so result ``i`` of one is result
    ``i`` of every other.  Each result's latency is its median over its
    group's segments, and p50 and p90 are taken over those medians of
    every group: a stall that hits a stretch of one segment, or a whole
    slow segment, does not move them.  p99 needs more samples than a
    segment holds, so it is taken over all segments pooled.
    """
    by_group: Dict[int, List[List[float]]] = {}
    for seg, group in zip(segments, groups or [0] * len(segments)):
        if seg:
            by_group.setdefault(group, []).append([s * 1e3 for s in seg])
    per_result, pooled = [], []
    for rows in by_group.values():
        pooled += [x for r in rows for x in r]
        n = min(len(r) for r in rows)
        per_result += [median([r[i] for r in rows]) for i in range(n)]
    return {
        "p50": percentile(per_result, 50),
        "p90": percentile(per_result, 90),
        "p99": percentile(pooled, 99),
        "n": float(len(pooled)),
    }


def run_rounds(
    seconds: float,
    trace: bool,
    closed_pass: Callable[[bool, bool], None],
    open_segment: Callable[[], None],
    passes_per_round: int = 1,
    meter: "HostMeter | None" = None,
) -> None:
    """The measuring schedule every workload shares.

    One discarded warm-up pass, then rounds of ``passes_per_round``
    closed-loop passes and one open-loop segment until ``seconds`` have
    passed (at least three rounds, four when traced, at most 80).  Before
    every pass and segment, off the clock, the collector runs, so each
    starts from the same heap state instead of inheriting a collection
    the previous one left due, and ``meter`` (if given) times the
    reference job, so the host's speed is sampled all through the run.
    ``closed_pass(record, traced)``: on the traced run every other pass
    is traced, so the untraced ones give the throughput
    ``trace.overhead_ratio`` compares with.
    """
    def settle() -> None:
        gc.collect()
        if meter is not None:
            meter.sample()

    gc.collect()
    closed_pass(False, False)
    min_rounds, max_rounds = (4 if trace else 3), 80
    t0 = clock()
    rounds = passes = 0
    longest = 0.0
    # A round is started only if one as long as the longest so far still
    # ends within ``seconds``, so a run measures no longer than asked.
    while rounds < max_rounds and (
        rounds < min_rounds or clock() - t0 + longest <= seconds
    ):
        r0 = clock()
        for _ in range(passes_per_round):
            settle()
            closed_pass(True, trace and passes % 2 == 1)
            passes += 1
        settle()
        open_segment()
        rounds += 1
        longest = max(longest, clock() - r0)
    settle()


def service_self_times(tracer: Tracer, pushed: int) -> Dict[str, float]:
    """``service.*`` from the traced passes' spans: push self time per tuple, flush self time."""
    selfs = tracer.self_times()
    return {
        "service.push_us_per_tuple": sum(selfs.get("service.push", [])) / max(pushed, 1) * 1e6,
        "service.flush_ms": median(selfs.get("service.flush", [])) * 1e3,
    }
