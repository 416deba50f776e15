"""Contract linter: self-lint cleanliness + scratch-offender detection.

The self-lint test is the load-bearing one: it runs the full linter
over ``src/repro`` and asserts zero errors, which keeps every future
PR honest about the snapshot protocol, wire magics and the worker verb
tables.
"""

import textwrap

import pytest

from repro.analysis.contracts import (
    lint_contracts,
    lint_magic_registry,
    lint_operator_classes,
    lint_verb_tables,
)
from repro.analysis.diagnostics import errors
from repro.streams.batch import TupleBatch
from repro.streams.operators.base import Operator


class ForgetfulStatefulOperator(Operator):
    """Scratch offender: accumulates state, forgets the snapshot protocol."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def process_batch(self, batch):
        self.seen.extend(batch)
        return TupleBatch()


class RememberingStatefulOperator(Operator):
    def __init__(self):
        super().__init__()
        self.seen = []

    def process_batch(self, batch):
        self.seen.extend(batch)
        return TupleBatch()

    def state_snapshot(self):
        return {"seen": list(self.seen)}

    def state_restore(self, state):
        self.seen = list(state["seen"])


class TestOperatorContracts:
    def test_stateful_without_snapshot_is_caught(self):
        diagnostics = lint_operator_classes([ForgetfulStatefulOperator])
        assert [d.rule for d in errors(diagnostics)] == ["stateful-snapshot"]
        (diag,) = errors(diagnostics)
        assert "seen" in diag.message
        assert "state_snapshot" in diag.message

    def test_diagnostic_points_at_the_offending_source(self):
        (diag,) = errors(lint_operator_classes([ForgetfulStatefulOperator]))
        assert diag.file and diag.file.endswith("test_contracts.py")
        assert diag.line > 0

    def test_stateful_with_snapshot_passes(self):
        assert errors(lint_operator_classes([RememberingStatefulOperator])) == []

    def test_allowlist_suppresses_stateful_finding(self):
        qualname = (
            f"{ForgetfulStatefulOperator.__module__}."
            f"{ForgetfulStatefulOperator.__qualname__}"
        )
        diagnostics = lint_operator_classes(
            [ForgetfulStatefulOperator],
            state_allowlist={qualname: "scratch operator for this test"},
        )
        assert errors(diagnostics) == []


class TestMagicRegistry:
    def test_repo_magics_are_unique(self):
        assert errors(lint_magic_registry()) == []

    def test_colliding_magics_are_caught(self, tmp_path):
        (tmp_path / "a.py").write_text('FRAME_MAGIC = b"XY"\n')
        (tmp_path / "b.py").write_text('_MAGIC = b"XY"\n')
        diagnostics = lint_magic_registry(tmp_path)
        assert [d.rule for d in errors(diagnostics)] == ["magic-uniqueness"]
        assert "b'XY'" in errors(diagnostics)[0].message

    def test_colliding_frame_kinds_are_caught(self, tmp_path):
        (tmp_path / "net").mkdir()
        (tmp_path / "net" / "protocol.py").write_text(
            "HELLO = 0x01\nREGISTER = 0x01\n"
        )
        diagnostics = lint_magic_registry(tmp_path)
        assert [d.rule for d in errors(diagnostics)] == ["magic-uniqueness"]
        assert "REGISTER" in errors(diagnostics)[0].message


def _write_verb_tree(tmp_path, engine_src, worker_src, protocol_src):
    (tmp_path / "runtime").mkdir()
    (tmp_path / "net").mkdir()
    (tmp_path / "runtime" / "engine.py").write_text(textwrap.dedent(engine_src))
    (tmp_path / "runtime" / "worker.py").write_text(textwrap.dedent(worker_src))
    (tmp_path / "net" / "protocol.py").write_text(textwrap.dedent(protocol_src))
    return tmp_path


_WORKER_OK = """
    class ShardRunner:
        def handle(self, message, release):
            kind = message[0]
            if kind == "chunk":
                return ("stats", 1)
            if kind == "stop":
                return None
"""

_PROTOCOL_OK = """
    def encode_worker_message(message):
        verb = message[0]
        if verb == "chunk":
            return b"c"
        if verb == "stop":
            return b"s"
        if verb == "stats":
            return b"t"

    def decode_worker_message(frame):
        if frame == b"c":
            return ("chunk", 1)
        if frame == b"s":
            return ("stop",)
        return ("stats", 1)
"""


class TestVerbTables:
    def test_repo_verb_tables_are_in_sync(self):
        assert errors(lint_verb_tables()) == []

    def test_synced_synthetic_tree_passes(self, tmp_path):
        root = _write_verb_tree(
            tmp_path,
            """
            class Engine:
                def run(self):
                    self._send(0, ("chunk", 1))
                    self._send(0, ("stop",))
            """,
            _WORKER_OK,
            _PROTOCOL_OK,
        )
        assert errors(lint_verb_tables(root)) == []

    def test_unhandled_coordinator_verb_is_caught(self, tmp_path):
        root = _write_verb_tree(
            tmp_path,
            """
            class Engine:
                def run(self):
                    self._send(0, ("chunk", 1))
                    self._send(0, ("vanish",))
            """,
            _WORKER_OK,
            _PROTOCOL_OK,
        )
        found = errors(lint_verb_tables(root))
        assert any("'vanish'" in d.message for d in found)


class TestSelfLint:
    def test_src_repro_is_clean(self):
        """The whole point: src/repro passes its own contract linter."""
        diagnostics = lint_contracts()
        assert errors(diagnostics) == [], "\n".join(
            d.render() for d in errors(diagnostics)
        )

    @pytest.mark.parametrize("rule", ["stateful-snapshot"])
    def test_repo_operators_pass_rule(self, rule):
        diagnostics = [d for d in lint_contracts() if d.rule == rule]
        assert errors(diagnostics) == []
