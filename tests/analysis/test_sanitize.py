"""REPRO_SANITIZE runtime mode: armed invariants catch seeded corruption.

The sanitizer must be off by default (zero-cost in production), latch
at object construction, and turn seeded replay-log corruption into
:class:`SanitizerError` instead of silent garbage.
"""

import pytest

from repro.analysis.sanitize import SanitizerError, sanitizer_enabled
from repro.recovery.replay import ReplayLog
from repro.streams.tuples import StreamTuple


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


@pytest.fixture
def disarmed(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


class TestSwitch:
    def test_off_by_default(self, disarmed):
        assert sanitizer_enabled() is False

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_values_arm(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitizer_enabled() is True

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off"])
    def test_falsy_values_disarm(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitizer_enabled() is False

    def test_latched_at_construction(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        log = ReplayLog(capacity=8, query="q")
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert log._sanitize is False  # flipping env never re-arms a live log
        log.append(_tuple(1.0))
        log._base += 5  # the corruption an armed log rejects
        log.append(_tuple(2.0))
        assert log.last_seq == 7


def _tuple(ts):
    return StreamTuple(timestamp=ts, values={"n": ts})


class TestReplayInvariants:
    def test_armed_log_round_trips_normally(self, armed):
        log = ReplayLog(capacity=4, query="q")
        for ts in range(1, 7):
            log.append(_tuple(float(ts)))
        entries = log.replay_from(3)
        assert [seq for seq, _ in entries] == [4, 5, 6]

    def test_seq_jump_on_append_is_caught(self, armed):
        log = ReplayLog(capacity=8, query="q")
        log.append(_tuple(1.0))
        log._base += 5  # seed corruption: base drifts without a trim
        with pytest.raises(SanitizerError, match="append moved last_seq"):
            log.append(_tuple(2.0))

    def test_restore_relatches_the_expected_seq(self, armed):
        # A restore is a legitimate seq jump: appends continue from it.
        log = ReplayLog(capacity=4, query="q")
        log.append(_tuple(1.0))
        log.state_restore({"base": 10, "items": [_tuple(2.0), _tuple(3.0)]})
        assert log.append(_tuple(4.0)) == 13
        assert [seq for seq, _ in log.replay_from(11)] == [12, 13]

    def test_disarmed_log_skips_the_checks(self, disarmed):
        log = ReplayLog(capacity=8, query="q")
        log.append(_tuple(1.0))
        log._base += 5
        log.append(_tuple(2.0))  # silently wrong, but not the sanitizer's job
        assert log.last_seq == 7
