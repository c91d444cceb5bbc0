"""Exception types shared across the package."""


class GapscopeError(Exception):
    """Base class for all library errors."""


class DomainError(GapscopeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(GapscopeError, ValueError):
    """Structured input (lengths, permutation, spec file) fails validation."""


class ParseError(GapscopeError, ValueError):
    """Number-expression text does not match the grammar.

    Carries the 0-based position of the first offending character.
    """

    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} at position {position}: {text!r}")
        self.text = text
        self.position = position


class AmbiguousValueError(GapscopeError, ValueError):
    """A floating input is too close to a Farey fraction to classify.

    Raised when an inexact input sits within the fixed guard band
    (``numerics.GUARD_BAND``) of a Farey element without being exactly equal
    to it.  Supplying the value as an exact rational or surd expression
    resolves it.
    """


class NoInverseError(GapscopeError, ValueError):
    """Modular inverse requested for a non-coprime pair."""


class ConsistencyError(GapscopeError, RuntimeError):
    """An internal identity that must hold numerically failed beyond tolerance.

    Signals either a genuine bug or an input in degenerate position
    (duplicated orbit points, discontinuities colliding with the orbit).
    """


class DegenerateOrbitError(ConsistencyError):
    """The orbit segment is too short for a construction's preconditions,
    e.g. the slot forest needs the orbit points to separate the map's
    discontinuities."""
