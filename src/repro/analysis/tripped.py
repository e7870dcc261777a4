"""The exception every resource guard raises.

A leaf with no imports: the query engine and the CLI raise and catch it
without loading the budget and degradation machinery of
:mod:`repro.analysis.guards`, which re-exports it.
"""

from __future__ import annotations

__all__ = ["GuardTripped"]


class GuardTripped(Exception):
    """A resource guard fired.

    ``reason`` is one of the stable degradation-reason strings
    (``deadline``, ``max_passes``, ``call_depth``, ``ptf_cap``,
    ``state_entries``, ``injected``, ``quarantined``); ``proc`` names the
    procedure being evaluated when the guard tripped.
    """

    def __init__(self, reason: str, proc: str = "", detail: str = "") -> None:
        self.reason = reason
        self.proc = proc
        self.detail = detail
        message = f"{proc or '<program>'}: {reason}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
