"""Analyzer wiring: strict registration, session.analyze, server headers.

The tentpole's acceptance path: a seeded typo'd-column query is
*rejected* under ``strict=True`` with a spanned diagnostic, and the
server surfaces analyzer findings in the REGISTER reply header.
"""

import pytest

from repro import QuerySession
from repro.analysis import AnalysisError
from repro.net import RemoteError, StreamClient, serve_in_thread

TYPO = "SELECT SUM(wt) AS total FROM rfid [RANGE 5 SECONDS SLIDE 5 SECONDS]"
# Warning-severity only (WITH PROBABILITY over a deterministic SUM):
# the analyzer flags it, but lowering accepts it.
SLOPPY = (
    "SELECT SUM(n) AS total FROM rfid [RANGE 5 SECONDS SLIDE 5 SECONDS] "
    "HAVING SUM(n) > 1 WITH PROBABILITY 0.9"
)
CLEAN = "SELECT SUM(w) AS total FROM rfid [RANGE 5 SECONDS SLIDE 5 SECONDS]"


@pytest.fixture
def session():
    s = QuerySession()
    s.create_stream(
        "rfid", values=("tag_id", "n"), uncertain=("w",), family="gaussian"
    )
    yield s
    s.close()


class TestStrictRegistration:
    def test_typo_is_rejected_with_a_spanned_diagnostic(self, session):
        with pytest.raises(AnalysisError) as excinfo:
            session.register("totals", TYPO, strict=True)
        error = excinfo.value
        assert "did you mean 'w'" in str(error)
        # The span anchors at the aggregate call containing the typo.
        assert error.line == 1
        assert error.column == 8
        assert error.token == "wt"
        (diag,) = error.diagnostics
        assert diag.rule == "unknown-column"
        assert "totals" not in session.queries  # nothing half-registered

    def test_clean_query_registers_strictly(self, session):
        session.register("totals", CLEAN, strict=True)
        assert session.queries == ["totals"]

    def test_default_registration_stays_lenient(self, session):
        # Without strict, warnings-only queries register as before.
        session.register("hot", SLOPPY)
        assert session.queries == ["hot"]

    def test_analyze_reports_without_registering(self, session):
        diagnostics = session.analyze(SLOPPY)
        assert [d.rule for d in diagnostics] == ["probability-on-deterministic"]
        assert session.queries == []


class TestServerWarnings:
    @pytest.fixture
    def server(self):
        handle = serve_in_thread(QuerySession())
        yield handle
        handle.stop()

    @pytest.fixture
    def client(self, server):
        with StreamClient(server.address, timeout=15.0) as connected:
            connected.declare_stream(
                "rfid", values=("tag_id", "n"), uncertain=("w",), family="gaussian"
            )
            yield connected

    def test_register_returns_warnings_in_header(self, client):
        client.register("hot", SLOPPY)
        assert len(client.last_register_warnings) == 1
        assert "WITH PROBABILITY" in client.last_register_warnings[0]

    def test_clean_register_has_no_warnings(self, client):
        client.register("totals", CLEAN)
        assert client.last_register_warnings == []

    def test_strict_register_of_typo_is_a_remote_error(self, client):
        with pytest.raises(RemoteError, match="did you mean 'w'"):
            client.register("totals", TYPO, strict=True)
        # The query must not exist server-side after the refusal.
        assert client.hello()["queries"] == []

    def test_strict_register_analyzes_once(self, client, monkeypatch):
        import repro.analysis.semantic as semantic

        calls = []
        original = semantic.analyze_query

        def counting(query, *args, **kwargs):
            calls.append(query)
            return original(query, *args, **kwargs)

        monkeypatch.setattr(semantic, "analyze_query", counting)
        client.register("hot", SLOPPY, strict=True)
        assert calls == [SLOPPY]
        assert len(client.last_register_warnings) == 1
        with pytest.raises(RemoteError) as refused:
            client.register("totals", TYPO, strict=True)
        assert refused.value.code == "AnalysisError"
        assert calls == [SLOPPY, TYPO]
