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
from .errors import InfeasibleRegionError, ParameterDomainError, _check_after, _check_finite, _check_positive
from .likelihood import PanelData

SIGMA_UPPER_DEFAULT = 0.1


@dataclass(frozen=True)
class SolutionBox:
    """Open box of admissible (eta, alpha, sigma) triples; the ranges must be finite.

    The bound arrays, in (eta, alpha, sigma) order, are set once and cannot
    be assigned: lower and upper (the range ends), widths (upper - lower)
    and interior, the (lower, upper) pulled inward by a tiny margin that
    clip_interior projects onto.
    """

    eta_range: tuple = (0.0, ETA_VISIBILITY_FACTOR)
    alpha_range: tuple = (0.0, 1.0)
    sigma_range: tuple = (0.0, SIGMA_UPPER_DEFAULT)

    def __post_init__(self) -> None:
        for name, (lo, hi) in zip(
            ("eta", "alpha", "sigma"),
            (self.eta_range, self.alpha_range, self.sigma_range),
        ):
            if not lo < hi:
                raise ParameterDomainError(f"empty {name} range ({lo}, {hi})")
            # lo < hi, so the width is finite only when both ends are
            if not math.isfinite(hi - lo):
                raise ParameterDomainError(f"{name} range ({lo}, {hi}) must be finite")
        if self.alpha_range[1] > 1.0:
            raise ParameterDomainError("alpha upper bound cannot exceed 1")
        lower = np.array([self.eta_range[0], self.alpha_range[0], self.sigma_range[0]])
        upper = np.array([self.eta_range[1], self.alpha_range[1], self.sigma_range[1]])
        widths = upper - lower
        eps = 1e-12 * widths
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "interior", (lower + eps, upper - eps))

    def contains(self, theta) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(np.all(theta > self.lower) and np.all(theta < self.upper))

    def clip_interior(self, theta) -> np.ndarray:
        """Project onto the box, nudged strictly inside by a tiny margin."""
        return np.clip(np.asarray(theta, dtype=float), *self.interior)


def alpha1(x0: float, urr: float) -> float:
    """alpha cap from requiring the curve's total area to reach the given URR.

    alpha1 = exp(-4 * x0 / URR).
    """
    _check_positive("urr", urr)
    _check_positive("x0", x0)
    return math.exp(-4.0 * x0 / urr)


def alpha2(c: float, urr: float, t0: float, tF: float) -> float:
    """alpha cap from the cumulative production c observed over [t0, tF].

    With M = c/URR and h = tF - t0, alpha2 = |(M-1)/(M+1)|^(2/h).  The
    absolute value squares the (negative, since M < 1) base before the
    1/h-th root; this reproduces the published bound tables.  The window
    must be finite: an infinite h would give the uncapped 1.0.
    """
    _check_finite("t0", t0)
    _check_finite("tF", tF)
    _check_after("tF", tF, "t0", t0)
    _check_positive("urr", urr)
    _check_positive("c", c)
    if c >= urr:
        raise InfeasibleRegionError(
            f"cumulative production {c:.6g} >= urr {urr:.6g}; "
            "the URR estimate is inconsistent with the observed series"
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


def alpha_caps(data: PanelData, urr: float) -> tuple[float, float]:
    """(alpha1, alpha2) of a panel given its URR figure.

    x0 is the (mean) initial observed value and c the trapezoidal
    cumulative production over the window; c >= urr raises
    InfeasibleRegionError (from alpha2).
    """
    x0 = float(np.mean(data.initial_values()))
    c = cumulative_trapezoid(data)
    return alpha1(x0, urr), alpha2(c, urr, data.t_first, data.t_last)


def build_box(
    data: PanelData,
    urr: float | None = None,
    sigma_cap: float = SIGMA_UPPER_DEFAULT,
) -> SolutionBox:
    """Search box for (eta, alpha, sigma) given a panel and an optional URR.

    Without a URR the alpha interval falls back to (0, 1); with one it is
    (0, alpha*), alpha* = min(alpha_caps(data, urr)).
    """
    _check_positive("sigma_cap", sigma_cap)
    alpha_star = 1.0 if urr is None else min(alpha_caps(data, urr))
    return SolutionBox(
        eta_range=(0.0, ETA_VISIBILITY_FACTOR),
        alpha_range=(0.0, alpha_star),
        sigma_range=(0.0, sigma_cap),
    )
