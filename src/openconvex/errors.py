"""Shared exception types."""


class DomainError(ValueError):
    """A point lies outside the open domain of the piecewise function."""


class DimensionMismatch(ValueError):
    """Vector arguments do not share a common dimension."""


class DegenerateError(ValueError):
    """An operation requires two distinct points."""


class RangeError(ValueError):
    """A scalar argument lies outside its admissible range."""


class InfeasibleData(ValueError):
    """Point data violates the two-point interpolation conditions."""

