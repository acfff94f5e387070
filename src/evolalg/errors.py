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
    """An input value could not be read (not JSON, wrong shape or type)."""


class ValidationError(EvolAlgError):
    """An input value reads but breaks a rule (a zero or non-finite weight,
    a target out of order or outside the universe, a vertex given twice)."""
