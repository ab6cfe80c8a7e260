"""Exceptions shared by the numerical modules."""

__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """A computation could not meet its numerical accuracy contract."""
