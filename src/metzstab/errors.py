"""Exception types shared across the toolbox."""

from __future__ import annotations


class MetzstabError(Exception):
    """Base class for toolbox-specific errors."""


class PreconditionError(MetzstabError, ValueError):
    """An input violates a documented precondition (CLI exit code 2)."""


class IterationLimitError(MetzstabError, RuntimeError):
    """An iterative routine exhausted its budget (CLI exit code 3).

    ``best`` carries the best iterate seen so far, when one exists, so
    callers can inspect how close the run got before giving up.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best

