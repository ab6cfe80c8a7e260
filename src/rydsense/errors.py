"""Exceptions and input checks shared by the numerical modules."""

import numbers

import numpy as np

__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """A computation could not meet its numerical accuracy contract."""


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is None or a non-negative integer."""
    if seed is not None and not _is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _finite_angles(theta) -> np.ndarray:
    """``theta`` as a float array; ``ValueError`` unless every angle is finite."""
    thetas = np.asarray(theta, dtype=float)
    if not np.isfinite(thetas).all():
        raise ValueError("theta must be finite")
    return thetas
