"""Opt-in runtime sanitizer switch (``REPRO_SANITIZE=1``).

TSAN-style wiring: production builds pay nothing, but setting
``REPRO_SANITIZE=1`` in the environment arms invariant assertions in
the replay log (:mod:`repro.recovery.replay`): seq monotonicity of
appends and replays.

Violations raise :class:`SanitizerError` (an ``AssertionError``
subclass, so ``pytest`` and plain ``assert``-aware tooling treat it as
an invariant failure, not an operational error).  Instrumented objects
latch the switch at construction — flipping the env var mid-flight
never changes the behaviour of a live log.

CI runs the runtime and recovery suites with the switch on (see
``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import os

__all__ = ["SanitizerError", "sanitizer_enabled", "check"]

_FALSY = frozenset({"", "0", "false", "no", "off"})


class SanitizerError(AssertionError):
    """An armed runtime invariant was violated."""


def sanitizer_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to a truthy value.

    Read from the environment on every call; instrumented objects call
    this once in ``__init__`` and latch the result.
    """
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in _FALSY


def check(condition: bool, message: str) -> None:
    """Raise :class:`SanitizerError` unless ``condition`` holds.

    Callers guard the call site on their latched flag, so the condition
    expression itself is only evaluated in sanitize mode.
    """
    if not condition:
        raise SanitizerError(f"sanitizer: {message}")
