"""Shared exception types."""


class CapacityError(RuntimeError):
    """A hard combinatorial or dimensional guard was exceeded."""


class SchemaViolation(ValueError):
    """Input data does not match the documented JSON schema."""


class NormalizationError(ArithmeticError):
    """A grand-canonical normalization factor vanished or is unusable."""


class NumericError(ArithmeticError):
    """A computation overflowed or produced an invalid floating-point result."""
