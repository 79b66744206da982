"""The Hubbert diffusion process.

A nonhomogeneous lognormal diffusion with drift r(t)*x and diffusion
sigma^2*x^2, whose mean function is the Hubbert curve.  Transition laws
are lognormal:

    ln X(t) | X(s)=y  ~  N( ln y + 2*ln((eta+alpha^s)/(eta+alpha^t))
                              + (ln(alpha) - sigma^2/2)*(t-s),
                            sigma^2*(t-s) )

Paths admit an exact solution driven by a standard Wiener process, so
simulation on a grid needs only cumulative Gaussian increments (no SDE
integrator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import CurveParams, _check_eta_alpha, _log_mean, hubbert_value
from .errors import OrderingError, _check_after, _check_all_finite, _check_all_positive, _check_count, _check_finite
from .errors import _check_increasing, _check_nonnegative, _check_not_before, _check_positive
from .likelihood import PanelData, _check_initial

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class InitialDistribution:
    """Lognormal law of X(t0): ln X(t0) ~ N(mu0, sigma0_sq).

    A degenerate start at x0 is the special case (ln x0, 0) and behaves
    identically everywhere.  mu0 must be finite and sigma0_sq finite and
    nonnegative (likelihood._check_initial, which log_likelihood shares).
    """

    mu0: float
    sigma0_sq: float = 0.0

    def __post_init__(self) -> None:
        _check_initial(self.mu0, self.sigma0_sq)

    @classmethod
    def degenerate(cls, x0: float) -> "InitialDistribution":
        _check_positive("x0", x0)
        return cls(mu0=math.log(x0), sigma0_sq=0.0)

    @property
    def mean(self) -> float:
        """exp(mu0 + sigma0_sq/2); inf, with numpy's overflow warning, where that overflows."""
        return float(np.exp(self.mu0 + 0.5 * self.sigma0_sq))


@dataclass(frozen=True)
class ProcessParams:
    """Hubbert diffusion parameters (eta, alpha, sigma) plus the initial law.

    sigma = 0 is accepted as an explicit deterministic mode for simulation;
    estimation requires sigma > 0.
    """

    eta: float
    alpha: float
    sigma: float
    init: InitialDistribution
    t0: float = 0.0

    def __post_init__(self) -> None:
        _check_eta_alpha(self.eta, self.alpha)
        _check_nonnegative("sigma", self.sigma)
        _check_finite("t0", self.t0)


@dataclass(frozen=True)
class PathGrid:
    """Strictly increasing observation times; times[0] is the initial time t0."""

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise OrderingError("grid needs at least two time points")
        _check_increasing("grid times", times)
        _check_all_finite("grid times", times)
        object.__setattr__(self, "times", times)

    @property
    def t0(self) -> float:
        return float(self.times[0])


def transition_logpdf(x, t: float, y: float, s: float, p: ProcessParams):
    """Log transition density ln f(x, t | y, s); lognormal in x.

    Needs sigma > 0, finite times s < t and positive, finite states x and y.
    """
    _check_positive("sigma", p.sigma)
    _check_finite("s", s)
    _check_finite("t", t)
    _check_after("t", t, "s", s)
    x = np.asarray(x, dtype=float)
    _check_all_positive("x", x)
    _check_positive("y", y)
    var = p.sigma**2 * (t - s)
    rate = math.log(p.alpha) - 0.5 * p.sigma**2
    z = np.log(x) - _log_mean(math.log(y), t, s, p.eta, p.alpha, rate)
    out = -np.log(x) - 0.5 * (_LOG_2PI + math.log(var)) - z**2 / (2.0 * var)
    return out if out.ndim else float(out)


def mean(t, p: ProcessParams):
    """E[X(t)] for t >= t0: the Hubbert curve through (t0, E[X0])."""
    return conditional_mean(t, p.init.mean, p.t0, p.eta, p.alpha)


def conditional_mean(t, y: float, s: float, eta: float, alpha: float):
    """E[X(t) | X(s) = y] for finite t >= s: the Hubbert curve through (s, y)."""
    curve = CurveParams(eta, alpha, y, s)
    t_arr = np.asarray(t, dtype=float)
    _check_not_before("t", t_arr, "s", s)
    out = hubbert_value(t_arr, curve)
    return out if out.ndim else float(out)


def finite_dim_params(times, p: ProcessParams) -> tuple[np.ndarray, np.ndarray]:
    """Log-scale mean vector and covariance matrix of (X(t1), ..., X(tn)).

    mu_i   = mu0 + 2*ln((eta+alpha^t0)/(eta+alpha^t_i))
                 + (ln(alpha) - sigma^2/2)*(t_i - t0)
    sig_ij = sigma0^2 + sigma^2*(min(t_i, t_j) - t0)
    """
    times = np.asarray(times, dtype=float)
    _check_increasing("times", times)
    _check_not_before("times", times, "t0", p.t0)
    _check_all_finite("times", times)
    rate = math.log(p.alpha) - 0.5 * p.sigma**2
    mu = _log_mean(p.init.mu0, times, p.t0, p.eta, p.alpha, rate)
    cov = p.init.sigma0_sq + p.sigma**2 * (np.minimum.outer(times, times) - p.t0)
    return mu, cov


def simulate_paths(
    p: ProcessParams, grid: PathGrid, n_paths: int, seed: int
) -> PanelData:
    """Draw sample paths on the grid using the exact solution.

    X(t_j) = X(t0) * ((eta+alpha^t0)/(eta+alpha^t_j))^2 * alpha^(t_j - t0)
             * exp(sigma*W(t_j - t0) - sigma^2/2*(t_j - t0))

    W is built from independent Gaussian increments generated path-major
    (all increments of path 0, then path 1, ...), so a fixed seed gives a
    reproducible panel.  X(t0) is drawn once per path before the increment
    loop; with sigma = 0 every path equals the deterministic curve.
    """
    _check_count("n_paths", n_paths, 1)
    if grid.t0 != p.t0:
        raise OrderingError(
            f"grid starts at {grid.t0} but the process t0 is {p.t0}"
        )
    rng = np.random.default_rng(seed)
    times = grid.times
    t0 = grid.t0
    n_steps = times.size - 1

    if p.init.sigma0_sq > 0.0:
        x_start = np.exp(
            p.init.mu0 + math.sqrt(p.init.sigma0_sq) * rng.standard_normal(n_paths)
        )
    else:
        x_start = np.full(n_paths, math.exp(p.init.mu0))

    # Deterministic trend through (t0, 1); scaled per path by its start value.
    log_trend = _log_mean(0.0, times, t0, p.eta, p.alpha, math.log(p.alpha))

    increments = rng.standard_normal((n_paths, n_steps)) * np.sqrt(np.diff(times))
    w = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(increments, axis=1)], axis=1)
    # at sigma = 0 the noise is +-0, so the paths are the curve's bytes
    noise = p.sigma * w - 0.5 * p.sigma**2 * (times - t0)

    values = x_start[:, None] * np.exp(log_trend[None, :] + noise)
    # PanelData copies every array it is given
    return PanelData(times=[times] * n_paths, values=list(values))
