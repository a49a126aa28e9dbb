"""Exception types shared across the package.

Each class carries the exit code the CLI returns when it escapes a command.
"""
from __future__ import annotations


class PVGraphError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class UnreachableSite(PVGraphError):
    """A declared site appears on no route; the system is trivially uncoverable."""

    exit_code = 5


class InconsistentWalk(PVGraphError):
    """A walk step is not an edge its carrier activates at that time."""


class IllegalAction(PVGraphError):
    """A strategy tried to ride a carrier that is not at the agent's site."""


class NotIdMode(PVGraphError):
    """A strategy requiring site identities ran on an anonymous system."""

    exit_code = 4


class ParameterViolation(PVGraphError):
    """Parameters violate a stated constraint (names the constraint or the unknown carrier)."""


class NoSuitablePrime(ParameterViolation):
    """No prime exists in the range a construction needs."""


class NoCoprimePair(ParameterViolation):
    """No coprime period pair exists for the requested size."""


class StrategyDidNotHalt(PVGraphError):
    """A forge run hit the move limit before the strategy halted."""

    exit_code = 3


class StateSpaceTooLarge(PVGraphError):
    """Exact search stored more states than the cap allows; carries the count."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"state space {size} exceeds cap {cap}")
        self.size = size
        self.cap = cap


class ParseError(PVGraphError):
    """Route-set file syntax or semantic error, with 1-based position."""

    exit_code = 5

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
