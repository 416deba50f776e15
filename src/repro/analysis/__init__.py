"""Static analysis for the uncertain-stream system.

Three analyzers under one roof (see :mod:`repro.analysis.cli` for the
``python -m repro.analysis`` gate):

* :mod:`repro.analysis.semantic` — post-parse, pre-lowering CQL
  validation against declared stream schemas;
* :mod:`repro.analysis.contracts` — operator/plan contract linter
  (snapshot protocol, magic uniqueness, worker verb-table sync);
* :mod:`repro.analysis.concurrency` — fork-safety and thread
  discipline lint over :mod:`repro.runtime`.

Plus :mod:`repro.analysis.sanitize`, the ``REPRO_SANITIZE=1`` runtime
switch armed by the replay log.

This module is imported by a hot path (``repro.recovery.replay``), so
only the tiny leaf modules load eagerly; the analyzers themselves
resolve lazily on first attribute access.
"""

from __future__ import annotations

from .diagnostics import AnalysisError, Diagnostic, Severity, errors, render_all, warnings
from .sanitize import SanitizerError, check, sanitizer_enabled

__all__ = [
    "AnalysisError",
    "Diagnostic",
    "Severity",
    "errors",
    "warnings",
    "render_all",
    "SanitizerError",
    "check",
    "sanitizer_enabled",
    "analyze_query",
    "lint_contracts",
    "lint_concurrency",
    "lint_source",
    "main",
]

_LAZY = {
    "analyze_query": ("repro.analysis.semantic", "analyze_query"),
    "lint_contracts": ("repro.analysis.contracts", "lint_contracts"),
    "lint_concurrency": ("repro.analysis.concurrency", "lint_concurrency"),
    "lint_source": ("repro.analysis.concurrency", "lint_source"),
    "main": ("repro.analysis.cli", "main"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
