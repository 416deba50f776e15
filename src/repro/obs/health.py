"""Declarative health rules evaluated off the metrics history ring.

A :class:`HealthRule` is one sentence of operational policy —
``latency_p99 > 50ms for 10s`` — compiled from a small grammar::

    <metric>[{label="value",...}] [<stat>] <op> <threshold>[ms|s] [for <N>s] [over <W>s]

* ``metric`` — a registry metric name (``repro_query_latency_seconds``).
  Without a label selector the rule is a *wildcard*: it evaluates every
  series of that name in the ring and reports the worst offender.
* ``stat`` — how to read the series: ``value`` (latest sample, the
  default for gauges), ``rate`` (per-second increase over the window,
  the burn-rate primitive for counters), or ``p50``/``p95``/``p99``
  (windowed histogram quantiles).
* ``op``/``threshold`` — ``>``, ``>=``, ``<``, ``<=`` against a number;
  an ``ms`` or ``s`` suffix converts to seconds.
* ``for Ns`` — hysteresis: the condition must hold continuously for N
  seconds before the rule *fires* (state ``pending`` in between), so a
  single slow tick does not page anyone.
* ``over Ws`` — the history window for ``rate``/quantile stats
  (default 30s).

The :class:`HealthEngine` owns a rule set, evaluates it against a
:class:`~repro.obs.history.HistoryRing` on demand (each METRICS/HEALTH
poll or recorder tick), tracks per-rule ``ok → pending → firing``
state, and invokes registered alert callbacks exactly once per
transition into ``firing`` — the actuation point a reaction (shedding
a subscriber, re-planning a stale query) subscribes to via
``QuerySession.on_alert``.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Dict, List, Optional, Sequence

from .history import HistoryRing
from .trace import trace_clock

__all__ = ["HealthRule", "HealthEngine", "parse_rule", "default_rules"]

_STATS = ("value", "rate", "p50", "p95", "p99")
_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}

_RULE_RE = re.compile(
    r"""^\s*
    (?P<metric>[A-Za-z_:][A-Za-z0-9_:]*)
    (?P<labels>\{[^}]*\})?
    (?:\s+(?P<stat>value|rate|p50|p95|p99))?
    \s*(?P<op>>=|<=|>|<)\s*
    (?P<threshold>-?\d+(?:\.\d+)?)(?P<unit>ms|s)?
    (?:\s+for\s+(?P<hold>\d+(?:\.\d+)?)s)?
    (?:\s+over\s+(?P<window>\d+(?:\.\d+)?)s)?
    \s*$""",
    re.VERBOSE,
)


class HealthRule:
    """One compiled rule plus its evaluation state."""

    def __init__(
        self,
        name: str,
        metric: str,
        stat: str = "value",
        op: str = ">",
        threshold: float = 0.0,
        labels: Optional[str] = None,
        for_seconds: float = 0.0,
        window: float = 30.0,
    ):
        if stat not in _STATS:
            raise ValueError(f"unknown stat {stat!r}; expected one of {_STATS}")
        if op not in _OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.name = name
        self.metric = metric
        self.stat = stat
        self.op = op
        self.threshold = float(threshold)
        #: Exact series key when the rule pins labels; None = wildcard.
        self.labels = labels
        self.for_seconds = float(for_seconds)
        self.window = float(window)
        # Evaluation state.
        self.state = "ok"  # ok | pending | firing
        self.since: Optional[float] = None  # when the condition started holding
        self.value: Optional[float] = None  # last observed stat value
        self.series: Optional[str] = None  # worst offender (wildcards)

    def _keys(self, history: HistoryRing) -> List[str]:
        if self.labels is not None:
            return [self.metric + self.labels]
        return history.keys_for(self.metric)

    def _read(self, history: HistoryRing, key: str) -> Optional[float]:
        if self.stat == "value":
            return history.latest(key)
        if self.stat == "rate":
            return history.rate(key, self.window)
        q = {"p50": 0.50, "p95": 0.95, "p99": 0.99}[self.stat]
        return history.windowed_percentile(key, q, self.window)

    def evaluate(self, history: HistoryRing, now: float) -> bool:
        """Advance the rule's state; returns True on an ok/pending→firing edge."""
        compare = _OPS[self.op]
        worst: Optional[float] = None
        worst_key: Optional[str] = None
        breaching = False
        for key in self._keys(history):
            value = self._read(history, key)
            if value is None:
                continue
            if worst is None or compare(value, worst) or value == worst:
                worst, worst_key = value, key
            if compare(value, self.threshold):
                breaching = True
        self.value = worst
        self.series = worst_key
        if not breaching:
            self.state = "ok"
            self.since = None
            return False
        if self.since is None:
            self.since = now
        held = now - self.since
        if held + 1e-9 >= self.for_seconds:
            fired = self.state != "firing"
            self.state = "firing"
            return fired
        self.state = "pending"
        return False

    def describe(self) -> dict:
        """JSON-able status (the HEALTH verb's payload per rule)."""
        return {
            "name": self.name,
            "rule": str(self),
            "state": self.state,
            "value": self.value,
            "series": self.series,
            "since": self.since,
        }

    def __str__(self) -> str:
        parts = [self.metric + (self.labels or "")]
        if self.stat != "value":
            parts.append(self.stat)
        parts.append(f"{self.op} {self.threshold:g}")
        if self.for_seconds:
            parts.append(f"for {self.for_seconds:g}s")
        return " ".join(parts)


def parse_rule(text: str, name: Optional[str] = None) -> HealthRule:
    """Compile one rule from the grammar in the module docs."""
    match = _RULE_RE.match(text)
    if match is None:
        raise ValueError(f"unparseable health rule: {text!r}")
    threshold = float(match.group("threshold"))
    if match.group("unit") == "ms":
        threshold /= 1000.0
    return HealthRule(
        name=name or match.group("metric"),
        metric=match.group("metric"),
        stat=match.group("stat") or "value",
        op=match.group("op"),
        threshold=threshold,
        labels=match.group("labels"),
        for_seconds=float(match.group("hold") or 0.0),
        window=float(match.group("window") or 30.0),
    )


def default_rules() -> List[HealthRule]:
    """The stock rule set covering the failure modes the stack can have."""
    specs = [
        ("query_latency_p99", "repro_query_latency_seconds p99 > 50ms for 10s"),
        ("shard_stall_rate", "repro_shard_stalls_total rate > 5 for 5s over 10s"),
        ("subscriber_drop_rate", "repro_subscriber_dropped_total rate > 10 over 10s"),
        ("replay_trim_pressure", "repro_replay_trimmed_total rate > 100 over 10s"),
        ("shard_ring_occupancy", "repro_shard_outstanding value > 64 for 5s"),
    ]
    return [parse_rule(rule, name=name) for name, rule in specs]


class HealthEngine:
    """Evaluates a rule set against a history ring and dispatches alerts."""

    def __init__(
        self,
        history: HistoryRing,
        rules: Optional[Sequence[HealthRule]] = None,
    ):
        self.history = history
        self.rules: List[HealthRule] = list(default_rules() if rules is None else rules)
        self._lock = threading.Lock()
        self._callbacks: List[Callable[[HealthRule], None]] = []

    def add_rule(self, rule) -> HealthRule:
        """Add a rule (a :class:`HealthRule` or a grammar string)."""
        if isinstance(rule, str):
            rule = parse_rule(rule)
        with self._lock:
            self.rules.append(rule)
        return rule

    def on_alert(self, callback: Callable[[HealthRule], None]) -> None:
        """Invoke ``callback(rule)`` on every transition into ``firing``."""
        with self._lock:
            self._callbacks.append(callback)

    def evaluate(self, now: Optional[float] = None) -> List[HealthRule]:
        """Evaluate every rule; returns the rules that newly fired.

        Callbacks run outside the lock: an alert handler may itself
        query the engine (or tear down the session) without deadlock.
        """
        t = trace_clock() if now is None else float(now)
        with self._lock:
            rules = list(self.rules)
            callbacks = list(self._callbacks)
        fired = [rule for rule in rules if rule.evaluate(self.history, t)]
        for rule in fired:
            for callback in callbacks:
                try:
                    callback(rule)
                except Exception:  # noqa: BLE001 - alerts must not kill the poller
                    pass
        return fired

    def status(self) -> Dict:
        """JSON-able engine status (the HEALTH verb's reply body)."""
        with self._lock:
            rules = list(self.rules)
        return {
            "firing": sorted(r.name for r in rules if r.state == "firing"),
            "pending": sorted(r.name for r in rules if r.state == "pending"),
            "rules": [r.describe() for r in rules],
        }
