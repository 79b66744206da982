"""Exception types shared across the package, and the count, scalar and array rules that raise one."""

import math
import numbers

import numpy as np


class ParameterDomainError(ValueError):
    """A parameter lies outside its admissible domain (eta <= 0, alpha not in (0,1), ...)."""


class OrderingError(ValueError):
    """Time arguments violate the required ordering (s < t, strictly increasing grids)."""


class InfeasibleRegionError(ValueError):
    """Inputs are mutually inconsistent, e.g. observed cumulative production >= URR."""


class DataFormatError(ValueError):
    """An input file or argument failed validation; message names the offending part."""


class ConditioningError(RuntimeError):
    """A matrix is numerically singular; message carries the condition-number estimate."""


class InitializationError(RuntimeError):
    """The annealer could not find a single feasible point while probing the box."""


def _check_count(name: str, value, minimum: int) -> None:
    """A count setting must be an integer (not a boolean) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ParameterDomainError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_positive(name: str, value) -> None:
    if not 0.0 < value < math.inf:
        raise ParameterDomainError(f"{name} must be positive and finite, got {value}")


def _check_finite(name: str, value) -> None:
    if not math.isfinite(value):
        raise ParameterDomainError(f"{name} must be finite, got {value}")


def _check_all_finite(name: str, values) -> None:
    """_check_finite's rule for every element of a scalar or an array."""
    if not np.isfinite(values).all():
        raise ParameterDomainError(f"{name} must be finite, got {values}")


def _check_all_positive(name: str, values) -> None:
    """_check_positive's rule for every element of an array."""
    if not ((values > 0.0) & (values < math.inf)).all():
        raise ParameterDomainError(f"{name} must be positive and finite, got {values}")


def _check_nonnegative(name: str, value) -> None:
    if not 0.0 <= value < math.inf:
        raise ParameterDomainError(f"{name} must be finite and nonnegative, got {value}")


def _check_unit_interval(name: str, value) -> None:
    if not 0.0 < value < 1.0:
        raise ParameterDomainError(f"{name} must lie in (0, 1), got {value}")
