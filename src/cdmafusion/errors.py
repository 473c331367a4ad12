"""Exception types shared across the package."""


class CdmaFusionError(Exception):
    """Base class for every error raised by this package."""


class InvalidParam(CdmaFusionError):
    """A model or configuration parameter violates its constraint.

    Carries the offending field name, the rejected value, and a short
    statement of the constraint so callers can report it precisely.
    """

    def __init__(self, name: str, value: object, constraint: str):
        self.name = name
        self.value = value
        self.constraint = constraint
        super().__init__(f"{name}={value!r} violates: {constraint}")

    def __reduce__(self):
        # args holds the message alone, which __init__ cannot be called with
        return type(self), (self.name, self.value, self.constraint)


class DomainError(CdmaFusionError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidSpreadingMatrix(CdmaFusionError):
    """A signature matrix fails the alphabet or column-norm checks."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        self.row = row
        self.col = col
        super().__init__(message)


class DimensionMismatch(CdmaFusionError):
    """Vector or matrix dimensions are inconsistent with the model."""


class NumericalFailure(CdmaFusionError):
    """A factorization or solve failed, or an exact identity broke down."""


class ParseError(CdmaFusionError):
    """An experiment configuration document is malformed."""
