"""Exception types shared across the package."""

from __future__ import annotations


class MalformedBallotError(ValueError):
    """A ballot that cannot be classified against its roster."""


class ParseError(ValueError):
    """A ballot file that does not conform to its documented format."""


class NoValidBallotsError(ValueError):
    """A profile with no valid ranked ballot for a tabulation to count."""


class DecisiveTieError(Exception):
    """An exact tie that the requested tabulation cannot resolve."""

    def __init__(self, message: str, tied: tuple[str, ...] = ()):
        super().__init__(message)
        self.tied = tied


class UnattainableError(Exception):
    """A threshold or vote target that cannot be met.

    ``required`` carries the quantity that would have been needed, so
    callers can report how far out of reach the target was.
    """

    def __init__(self, message: str, required=None):
        super().__init__(message)
        self.required = required
