"""Exception types shared across the package."""


class EvolAlgError(Exception):
    """Base class for all library errors."""


class InvalidParams(EvolAlgError):
    """A parameter is out of range or malformed."""


class BudgetZero(EvolAlgError):
    """A traversal was asked to do work with a zero budget."""


class NoColumnAccess(EvolAlgError):
    """In-edge information was requested but the structure has no column access."""


class NoTailBound(EvolAlgError):
    """An infinite row was touched without a square-summable tail bound."""


class InfiniteRowReached(EvolAlgError):
    """An exact computation ran into an infinite row and cannot certify its result."""


class UniverseNotFinite(EvolAlgError):
    """The operation requires a finite vertex universe."""


class ParseError(EvolAlgError):
    """Input text could not be parsed."""


class ValidationError(EvolAlgError):
    """Parsed input violates a structural constraint."""
