"""Deterministic Hubbert-curve analytics.

The production-rate curve is the derivative of the logistic function
l(t) = k / (eta + alpha^t), normalized so it passes through (t0, x0):

    x(t) = x0 * ((eta + alpha^t0) / (eta + alpha^t))^2 * alpha^(t - t0)

All alpha^t powers are evaluated as exp(t * ln(alpha)); for 0 < alpha < 1
this underflows gracefully to 0.0 at large t instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, _check_all_finite, _check_finite, _check_positive

__all__ = [
    "CurveParams",
    "hubbert_value",
    "peak_time",
    "peak_value",
    "inflection_times",
    "urr",
    "shift_parameters",
]

# Visibility threshold for the first inflection point: t_inf1 > t0 iff
# eta < alpha^t0 * (2 - sqrt(3)).
ETA_VISIBILITY_FACTOR = 2.0 - math.sqrt(3.0)


def _check_eta_alpha(eta: float, alpha: float) -> None:
    """The one (eta, alpha) rule, written inline: the profile search runs it twice per evaluation."""
    if not 0.0 < eta < math.inf:
        raise ParameterDomainError(f"eta must be positive and finite, got {eta}")
    if not 0.0 < alpha < 1.0:
        raise ParameterDomainError(f"alpha must lie in (0, 1), got {alpha}")


def alpha_pow(alpha: float, t):
    """alpha^t computed in the log domain. Accepts scalar or array t."""
    return np.exp(np.multiply(t, math.log(alpha)))


def _log_mean(log_x0: float, t, t0: float, eta: float, alpha: float, rate: float):
    """log_x0 + 2*ln((eta+alpha^t0)/(eta+alpha^t)) + rate*(t - t0).

    The one Hubbert-curve formula: rate = ln(alpha) gives ln x(t), and
    rate = ln(alpha) - sigma^2/2 the log-scale mean of the diffusion.
    """
    shift = 2.0 * (np.log(eta + alpha_pow(alpha, t0)) - np.log(eta + alpha_pow(alpha, t)))
    return log_x0 + shift + rate * np.subtract(t, t0)


@dataclass(frozen=True)
class CurveParams:
    """Parameters of a Hubbert curve.

    eta is dimensionless, alpha is a per-time-unit decay base in (0, 1),
    x0 the production rate at the initial time t0.  The time unit is
    whatever the data uses (years in the oil applications); alpha's
    meaning depends on that unit.
    """

    eta: float
    alpha: float
    x0: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        _check_eta_alpha(self.eta, self.alpha)
        _check_positive("x0", self.x0)
        _check_finite("t0", self.t0)


def hubbert_value(t, p: CurveParams):
    """Production rate x(t), computed as exp(ln x(t)); x(t0) = x0 up to rounding; t must be finite."""
    _check_all_finite("t", t)
    return _hubbert_value(t, p)


def _hubbert_value(t, p: CurveParams):
    """hubbert_value at times t already checked."""
    return np.exp(_log_mean(math.log(p.x0), t, p.t0, p.eta, p.alpha, math.log(p.alpha)))


def peak_time(eta: float, alpha: float) -> float:
    """Time of the maximum, ln(eta)/ln(alpha); satisfies alpha^t_max = eta."""
    _check_eta_alpha(eta, alpha)
    return math.log(eta) / math.log(alpha)


def peak_value(p: CurveParams) -> float:
    """Maximum production rate x0*(eta + alpha^t0)^2 / (4*eta*alpha^t0).

    By AM-GM this is >= x0, with equality iff eta = alpha^t0.
    """
    a_t0 = alpha_pow(p.alpha, p.t0)
    return p.x0 * (p.eta + a_t0) ** 2 / (4.0 * p.eta * a_t0)


def inflection_times(eta: float, alpha: float) -> tuple[float, float]:
    """The two inflection points, symmetric about the peak time.

    Returns (t_inf1, t_inf2) with t_inf1 < t_max < t_inf2.  The first one
    is visible (t_inf1 > t0) iff eta < alpha^t0 * (2 - sqrt(3)).
    """
    t_max = peak_time(eta, alpha)
    offset = math.log(2.0 + math.sqrt(3.0)) / math.log(alpha)
    # ln(2 - sqrt(3)) = -ln(2 + sqrt(3)), so the points sit at t_max -+ |offset|
    return (t_max + offset, t_max - offset)


def urr(p: CurveParams) -> float:
    """Area under the curve over all time (ultimate recoverable resources).

    URR = -4 * peak_value(p) / ln(alpha); positive because ln(alpha) < 0.
    """
    return -4.0 * peak_value(p) / math.log(p.alpha)


def shift_parameters(eta: float, alpha: float, k: float) -> float:
    """eta of the time-shifted curve t -> t + k, i.e. eta' = eta * alpha^(-k).

    peak_time(eta', alpha) = peak_time(eta, alpha) - k, and the peak value
    is unchanged when t0 is shifted alongside.  Used to keep eta well away
    from zero when times are large calendar values.  Where alpha^(-k)
    overflows the result is inf, with numpy's overflow warning.
    """
    _check_eta_alpha(eta, alpha)
    return eta * alpha_pow(alpha, -k)
