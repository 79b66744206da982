"""Bounding the (eta, alpha, sigma) search region from data.

eta is capped at 2 - sqrt(3) (the first inflection point is visible only
below that), sigma at 0.1 (larger values produce paths too erratic for a
Hubbert-type fit).  When an ultimate-recoverable-resources figure is
available, alpha gets a data-driven cap alpha* = min(alpha1, alpha2);
otherwise the alpha interval is the whole (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import ETA_VISIBILITY_FACTOR
from .errors import InfeasibleRegionError, OrderingError, ParameterDomainError
from .likelihood import PanelData

__all__ = ["SolutionBox", "alpha1", "alpha2", "build_box", "ETA_UPPER"]

ETA_UPPER = ETA_VISIBILITY_FACTOR  # 2 - sqrt(3) ~ 0.26795
SIGMA_UPPER_DEFAULT = 0.1


@dataclass(frozen=True)
class SolutionBox:
    """Open box of admissible (eta, alpha, sigma) triples."""

    eta_range: tuple = (0.0, ETA_UPPER)
    alpha_range: tuple = (0.0, 1.0)
    sigma_range: tuple = (0.0, SIGMA_UPPER_DEFAULT)

    def __post_init__(self) -> None:
        for name, (lo, hi) in zip(
            ("eta", "alpha", "sigma"),
            (self.eta_range, self.alpha_range, self.sigma_range),
        ):
            if not lo < hi:
                raise ParameterDomainError(f"empty {name} range ({lo}, {hi})")
        if self.alpha_range[1] > 1.0:
            raise ParameterDomainError("alpha upper bound cannot exceed 1")
        # Cached bound arrays; proposals query these on every annealing step.
        lower = np.array([self.eta_range[0], self.alpha_range[0], self.sigma_range[0]])
        upper = np.array([self.eta_range[1], self.alpha_range[1], self.sigma_range[1]])
        eps = 1e-12 * (upper - lower)
        object.__setattr__(self, "_lower", lower)
        object.__setattr__(self, "_upper", upper)
        object.__setattr__(self, "_widths", upper - lower)
        object.__setattr__(self, "_interior_lo", lower + eps)
        object.__setattr__(self, "_interior_hi", upper - eps)

    @property
    def lower(self) -> np.ndarray:
        return self._lower

    @property
    def upper(self) -> np.ndarray:
        return self._upper

    @property
    def widths(self) -> np.ndarray:
        return self._widths

    @property
    def interior(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) that clip_interior projects onto."""
        return self._interior_lo, self._interior_hi

    def contains(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(np.all(theta > self._lower) and np.all(theta < self._upper))

    def clip_interior(self, theta) -> np.ndarray:
        """Project onto the box, nudged strictly inside by a tiny margin."""
        return np.clip(np.asarray(theta, dtype=float), self._interior_lo, self._interior_hi)


def alpha1(x0: float, urr: float) -> float:
    """alpha cap from requiring the curve's total area to reach the given URR.

    alpha1 = exp(-4 * x0 / URR).
    """
    if not x0 > 0.0 or not urr > 0.0:
        raise ParameterDomainError("x0 and urr must be positive")
    return math.exp(-4.0 * x0 / urr)


def alpha2(c: float, urr: float, t0: float, tF: float) -> float:
    """alpha cap from the cumulative production c observed over [t0, tF].

    With M = c/URR and h = tF - t0, alpha2 = |(M-1)/(M+1)|^(2/h).  The
    absolute value squares the (negative, since M < 1) base before the
    1/h-th root; this reproduces the published bound tables.
    """
    if not tF > t0:
        raise OrderingError(f"require tF > t0, got t0={t0}, tF={tF}")
    if not c > 0.0 or not urr > 0.0:
        raise ParameterDomainError("c and urr must be positive")
    if c >= urr:
        raise InfeasibleRegionError(
            f"observed cumulative production c={c} is not below urr={urr}"
        )
    m = c / urr
    h = tF - t0
    return abs((m - 1.0) / (m + 1.0)) ** (2.0 / h)


def cumulative_trapezoid(data: PanelData) -> float:
    """Observed cumulative production: trapezoidal integral of the path(s).

    With several paths, the mean of the per-path integrals.
    """
    areas = [float(np.trapezoid(v, t)) for t, v in zip(data.times, data.values)]
    return float(np.mean(areas))


def build_box(
    data: PanelData,
    urr: float | None = None,
    sigma_cap: float = SIGMA_UPPER_DEFAULT,
) -> SolutionBox:
    """Search box for (eta, alpha, sigma) given a panel and an optional URR.

    Without a URR the alpha interval falls back to (0, 1).  With one,
    alpha* = min(alpha1, alpha2) where x0 is the (mean) initial observed
    value and c the trapezoidal cumulative production over the window.
    """
    if not sigma_cap > 0.0:
        raise ParameterDomainError(f"sigma_cap must be positive, got {sigma_cap}")
    if urr is None:
        alpha_star = 1.0
    else:
        x0 = float(np.mean(data.initial_values()))
        c = cumulative_trapezoid(data)
        if c >= urr:
            raise InfeasibleRegionError(
                f"cumulative production {c:.6g} >= urr {urr:.6g}; "
                "the URR estimate is inconsistent with the observed series"
            )
        a1 = alpha1(x0, urr)
        a2 = alpha2(c, urr, data.t_first, data.t_last)
        alpha_star = min(a1, a2)
    return SolutionBox(
        eta_range=(0.0, ETA_UPPER),
        alpha_range=(0.0, alpha_star),
        sigma_range=(0.0, sigma_cap),
    )
