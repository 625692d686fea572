"""Exception types shared across the package."""


class OrispecError(Exception):
    """Base class for all package-specific errors."""


class ParseError(OrispecError, ValueError):
    """Malformed textual input (edge list, graph6, mixed-graph text)."""


class DisconnectedError(OrispecError, ValueError):
    """An operation that needs a connected graph met an unreachable vertex."""


class GuardLimit(OrispecError, ValueError):
    """Input exceeds the desk-scale size guard of an exhaustive operation."""


def check_guard(work: str, name: str, value: int, limit: int, guard: bool = True) -> None:
    """Refuse an exhaustive operation whose size exceeds its guard.

    The one place a size guard raises: ``<work>; <name>=<value> exceeds
    <limit> (pass guard=False to override)``.  Callers pass their guard
    constant at call time, and guard=False lifts the check.
    """
    if guard and value > limit:
        raise GuardLimit(f"{work}; {name}={value} exceeds {limit} (pass guard=False to override)")


class ComputationDefect(OrispecError, RuntimeError):
    """A mathematically guaranteed property failed to hold.

    Raised when an exact computation contradicts a proven statement
    (non-real coefficient of a Hermitian characteristic polynomial, an
    inexact division that must be exact, a greedy descent ending above its
    certified bound).  This always indicates a bug, never a valid answer.
    """
