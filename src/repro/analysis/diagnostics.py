"""Structured diagnostics shared by every analyzer in :mod:`repro.analysis`.

A :class:`Diagnostic` is one finding: a rule id, a severity, a message
and a source span.  Query-level findings carry a 1-based line/column and
the offending token, rendered in exactly the style of the CQL front
end's :class:`~repro.cql.errors.CQLSyntaxError` goldens (``"<domain>
<severity> at line L, column C: message (near 'tok')"``) so service
logs show one uniform error surface.  Code-level findings (the contract
and concurrency linters) carry a file path instead and render as
``"<domain> <severity> [rule] at file:line: message"``.

The rendered strings are stable and covered by golden tests — update
them deliberately, not accidentally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cql.errors import CQLError

__all__ = [
    "Severity",
    "Diagnostic",
    "AnalysisError",
    "errors",
    "warnings",
    "render_all",
]


class Severity(enum.Enum):
    """How bad a finding is: errors gate, warnings inform."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding with a source span.

    ``rule`` is a stable kebab-case identifier (``unknown-column``,
    ``stateful-snapshot``, ...), ``domain`` names the analyzer family that
    produced it (``"CQL semantic"``, ``"contract"``, ``"concurrency"``).
    Query diagnostics set ``line``/``column``/``token``; code
    diagnostics set ``file`` (and ``line``).
    """

    rule: str
    severity: Severity
    message: str
    line: int = 0
    column: int = 0
    token: Optional[str] = None
    file: Optional[str] = None
    domain: str = "CQL semantic"

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        """The stable human-readable form (see module docs)."""
        label = f"{self.domain} {self.severity.value}"
        if self.file is not None:
            return f"{label} [{self.rule}] at {self.file}:{self.line}: {self.message}"
        where = f"line {self.line}, column {self.column}"
        if self.token is not None:
            return f"{label} at {where}: {self.message} (near {self.token!r})"
        return f"{label} at {where}: {self.message}"

    def __str__(self) -> str:
        return self.render()


def errors(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """The error-severity subset, in order."""
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def warnings(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """The warning-severity subset, in order."""
    return [d for d in diagnostics if d.severity is Severity.WARNING]


def render_all(diagnostics: Sequence[Diagnostic]) -> List[str]:
    """Render every diagnostic to its stable string form."""
    return [d.render() for d in diagnostics]


class AnalysisError(CQLError):
    """A strict registration (or CLI gate) refused on error diagnostics.

    Carries the full diagnostic list; ``str()`` shows the first error
    plus a count, so one glance at a service log names the exact broken
    span while ``.diagnostics`` keeps everything for the caller.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        errs = errors(self.diagnostics)
        if not errs:
            raise ValueError("AnalysisError needs at least one error diagnostic")
        first = errs[0]
        extra = len(errs) - 1
        message = first.render()
        if extra:
            message += f" (+{extra} more error{'s' if extra > 1 else ''})"
        super().__init__(message)
        # Mirror the positioned-error attributes so handlers written for
        # CQLSyntaxError/CQLSemanticError can read a span off this too.
        self.line = first.line
        self.column = first.column
        self.token = first.token
