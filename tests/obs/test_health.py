"""Health rules: grammar, hysteresis, alert dispatch, and a real storm.

The acceptance case lives in :class:`TestDropStormEndToEnd`: a slow
subscriber behind a tiny buffer takes a real drop storm over TCP, the
stock ``subscriber_drop_rate`` burn-rate rule fires off the history
ring, ``QuerySession.on_alert`` is invoked, and the HEALTH verb reports
the firing state to a remote client.
"""

import pytest

from repro import QuerySession, obs
from repro.net import StreamClient, serve_in_thread
from repro.obs import HealthEngine, HistoryRing, Registry, default_rules, parse_rule

HOT = "SELECT * FROM rfid WHERE w > 40 WITH PROBABILITY 0.5"


class TestGrammar:
    def test_full_sentence(self):
        rule = parse_rule(
            "repro_query_latency_seconds p99 > 50ms for 10s over 60s"
        )
        assert rule.metric == "repro_query_latency_seconds"
        assert rule.stat == "p99"
        assert rule.op == ">"
        assert rule.threshold == pytest.approx(0.05)  # ms converted
        assert rule.for_seconds == 10.0
        assert rule.window == 60.0

    def test_defaults(self):
        rule = parse_rule("repro_depth > 5")
        assert rule.stat == "value"
        assert rule.for_seconds == 0.0
        assert rule.window == 30.0
        assert rule.labels is None  # wildcard

    def test_label_selector_pins_one_series(self):
        rule = parse_rule('repro_depth{engine="totals"} value >= 5s')
        assert rule.labels == '{engine="totals"}'
        assert rule.threshold == 5.0

    def test_rate_stat_and_operators(self):
        assert parse_rule("c rate > 10 over 10s").stat == "rate"
        assert parse_rule("g <= -1.5").op == "<="
        assert parse_rule("g < 0").op == "<"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "no operator",
            "metric >",
            "metric > fast",
            "metric p42 > 1",
            "metric > 1 for ever",
        ],
    )
    def test_unparseable_rules_raise(self, bad):
        with pytest.raises(ValueError, match="rule"):
            parse_rule(bad)

    def test_str_round_trips_through_the_parser(self):
        for rule in default_rules():
            again = parse_rule(str(rule))
            assert again.metric == rule.metric
            assert again.stat == rule.stat
            assert again.threshold == pytest.approx(rule.threshold)

    def test_default_rules_cover_the_stock_failure_modes(self):
        names = {rule.name for rule in default_rules()}
        assert {
            "query_latency_p99",
            "shard_stall_rate",
            "subscriber_drop_rate",
            "replay_trim_pressure",
            "shard_ring_occupancy",
        } <= names


def tick(ring, registry, t):
    ring.record(registry.snapshot(), t=t)


class TestStateMachine:
    def test_ok_pending_firing_hysteresis(self):
        ring = HistoryRing(capacity=16)
        registry = Registry()
        gauge = registry.gauge("g")
        rule = parse_rule("g value > 10 for 5s")

        gauge.set(20.0)
        tick(ring, registry, 0.0)
        assert rule.evaluate(ring, now=0.0) is False  # breach starts
        assert rule.state == "pending"
        assert rule.evaluate(ring, now=3.0) is False  # still inside the hold
        assert rule.state == "pending"
        assert rule.evaluate(ring, now=5.0) is True  # hold satisfied: edge
        assert rule.state == "firing"
        assert rule.evaluate(ring, now=6.0) is False  # no re-fire while held
        assert rule.state == "firing"

        gauge.set(1.0)
        tick(ring, registry, 7.0)
        assert rule.evaluate(ring, now=7.0) is False
        assert rule.state == "ok" and rule.since is None

        gauge.set(20.0)  # a fresh breach restarts the hold from zero
        tick(ring, registry, 8.0)
        assert rule.evaluate(ring, now=8.0) is False
        assert rule.state == "pending"

    def test_zero_hold_fires_immediately(self):
        ring = HistoryRing(capacity=8)
        registry = Registry()
        registry.gauge("g").set(99.0)
        tick(ring, registry, 0.0)
        rule = parse_rule("g > 10")
        assert rule.evaluate(ring, now=0.0) is True

    def test_wildcard_reports_the_worst_offender(self):
        ring = HistoryRing(capacity=8)
        registry = Registry()
        registry.gauge("g", q="a").set(1.0)
        registry.gauge("g", q="b").set(99.0)
        tick(ring, registry, 0.0)
        rule = parse_rule("g > 50")
        assert rule.evaluate(ring, now=0.0) is True
        assert rule.series == 'g{q="b"}'
        assert rule.value == 99.0

    def test_label_selector_ignores_other_series(self):
        ring = HistoryRing(capacity=8)
        registry = Registry()
        registry.gauge("g", q="a").set(1.0)
        registry.gauge("g", q="b").set(99.0)
        tick(ring, registry, 0.0)
        rule = parse_rule('g{q="a"} > 50')
        assert rule.evaluate(ring, now=0.0) is False
        assert rule.state == "ok"

    def test_missing_series_stays_ok(self):
        rule = parse_rule("nothing_here > 0")
        assert rule.evaluate(HistoryRing(capacity=4), now=0.0) is False
        assert rule.state == "ok" and rule.value is None

    def test_rate_rule_fires_on_burn_not_level(self):
        ring = HistoryRing(capacity=8)
        registry = Registry()
        counter = registry.counter("c")
        counter.inc(1_000_000)  # a huge absolute count...
        tick(ring, registry, 0.0)
        tick(ring, registry, 10.0)
        rule = parse_rule("c rate > 10 over 30s")
        assert rule.evaluate(ring, now=10.0) is False  # ...but zero burn
        counter.inc(500)
        tick(ring, registry, 20.0)
        assert rule.evaluate(ring, now=20.0) is True


class TestEngine:
    def build(self, rules=()):
        ring = HistoryRing(capacity=16)
        registry = Registry()
        engine = HealthEngine(ring, rules=list(rules))
        return ring, registry, engine

    def test_alert_callback_fires_once_per_transition(self):
        ring, registry, engine = self.build()
        engine.add_rule("g > 10")
        seen = []
        engine.on_alert(lambda rule: seen.append(rule.name))
        gauge = registry.gauge("g")

        gauge.set(99.0)
        tick(ring, registry, 0.0)
        assert [r.name for r in engine.evaluate(now=0.0)] == ["g"]
        engine.evaluate(now=1.0)  # still firing: no second alert
        assert seen == ["g"]

        gauge.set(1.0)
        tick(ring, registry, 2.0)
        engine.evaluate(now=2.0)  # recovers
        gauge.set(99.0)
        tick(ring, registry, 3.0)
        engine.evaluate(now=3.0)  # fires again
        assert seen == ["g", "g"]

    def test_broken_callback_does_not_stop_the_others(self):
        ring, registry, engine = self.build()
        engine.add_rule("g > 10")
        seen = []
        engine.on_alert(lambda rule: 1 / 0)
        engine.on_alert(lambda rule: seen.append(rule.name))
        registry.gauge("g").set(99.0)
        tick(ring, registry, 0.0)
        engine.evaluate(now=0.0)
        assert seen == ["g"]

    def test_status_is_the_health_verb_payload(self):
        ring, registry, engine = self.build()
        engine.add_rule("g > 10")
        engine.add_rule(parse_rule("h > 10 for 60s", name="slow"))
        registry.gauge("g").set(99.0)
        registry.gauge("h").set(99.0)
        tick(ring, registry, 0.0)
        engine.evaluate(now=0.0)
        status = engine.status()
        assert status["firing"] == ["g"]
        assert status["pending"] == ["slow"]
        described = {rule["name"]: rule for rule in status["rules"]}
        assert described["g"]["state"] == "firing"
        assert described["g"]["value"] == 99.0
        assert described["slow"]["since"] == 0.0


class TestDropStormEndToEnd:
    def test_slow_consumer_drop_storm_fires_and_alerts(self, rfid_tuples):
        """A real drop storm: tiny buffer, firehose ingest, no reader.

        The stock ``subscriber_drop_rate`` rule
        (``repro_subscriber_dropped_total rate > 10 over 10s``) must go
        to ``firing`` off two history ticks, invoke ``on_alert``, and
        surface through the HEALTH verb.
        """
        session = QuerySession()
        alerts = []
        session.on_alert(lambda rule: alerts.append(rule.name))
        handle = serve_in_thread(
            session, subscriber_buffer=8, slow_consumer="drop-oldest"
        )
        try:
            with StreamClient(handle.address, timeout=15.0) as client:
                client.declare_stream(
                    "rfid",
                    values=("tag_id",),
                    uncertain=("w",),
                    family="gaussian",
                    rate_hint=5.0,
                )
                client.register("hot", HOT)
                with client.subscribe("hot"):
                    baseline = client.health()  # tick 1: counter at rest
                    assert "subscriber_drop_rate" not in (
                        baseline["health"]["firing"]
                    )
                    # One giant frame: every result lands in the
                    # 8-slot buffer before the writer task runs.
                    client.ingest("rfid", rfid_tuples, batch_size=400)
                    reply = client.health()  # tick 2: the storm shows
        finally:
            handle.stop()

        dropped = obs.get_registry().snapshot()["counters"]
        assert any(
            c["name"] == "repro_subscriber_dropped_total" and c["value"] > 0
            for c in dropped
        ), "the storm never dropped anything — the test lost its premise"
        assert reply["ticks"] >= 2
        health = reply["health"]
        assert "subscriber_drop_rate" in health["firing"]
        assert "subscriber_drop_rate" in alerts, "on_alert was not invoked"
        rule = {r["name"]: r for r in health["rules"]}["subscriber_drop_rate"]
        assert rule["state"] == "firing"
        assert rule["value"] > 10.0  # drops/second, well past the threshold
        assert rule["series"].startswith("repro_subscriber_dropped_total")
