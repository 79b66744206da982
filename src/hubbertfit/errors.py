"""Exception types shared across the package."""


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
