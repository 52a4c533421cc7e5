"""The exceptions that the command line maps to exit codes.

They live apart from the modules that raise them, so that catching them
imports no numpy.  ``kb`` and ``evaluate`` re-export them.
"""

from __future__ import annotations

__all__ = ["DatasetError", "ParseError", "EvaluationError"]


class DatasetError(Exception):
    """A dataset violates a structural constraint."""


class ParseError(DatasetError):
    """A record could not be parsed; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class EvaluationError(ValueError):
    """Raised when inputs cannot be scored."""
