"""Exact log-likelihood of a discretely observed panel.

The panel holds d sample paths x_ij observed at strictly increasing times
t_ij with a common first time.  The likelihood depends on the data only
through a handful of sums (Z1, Z2, Z3 and the parameter-dependent Y1, Y2,
R built from T_ij = ln((eta+alpha^t_{i,j-1})/(eta+alpha^t_ij))), so the
per-transition quantities are cached once and reused across the many
objective evaluations an annealing run performs.

Transitions with identical (t_{j-1}, t_j) pairs, which dominate when all
paths share one grid, are aggregated: each unique pair stores its count
and the summed log-increments, making one objective call O(#unique times)
instead of O(#transitions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrderingError, ParameterDomainError

__all__ = [
    "PanelData",
    "SufficientStats",
    "initial_mle",
    "eta_alpha_sums",
    "log_likelihood",
    "objective",
    "INFEASIBLE",
]

# Objective value returned where the data term is not finite (alpha^t
# overflowing at negative times); optimizers treat it as an
# always-rejected move.  eta + alpha^t itself cannot underflow to zero,
# since eta > 0.
INFEASIBLE = math.inf

# np.sum's pairwise reduction without its Python-level dispatch.
_sum = np.add.reduce


@dataclass(frozen=True)
class PanelData:
    """d >= 1 sample paths: per-path time and value arrays.

    Times are strictly increasing within each path, values strictly
    positive, and every path starts at the same first time (required for
    the shared initial distribution).
    """

    times: list
    values: list

    def __post_init__(self) -> None:
        if len(self.times) == 0 or len(self.times) != len(self.values):
            raise ParameterDomainError("need matching, nonempty time/value lists")
        times = [np.asarray(t, dtype=float) for t in self.times]
        values = [np.asarray(v, dtype=float) for v in self.values]
        for i, (t, v) in enumerate(zip(times, values)):
            if t.shape != v.shape or t.ndim != 1 or t.size < 2:
                raise ParameterDomainError(
                    f"path {i}: times and values must be 1-d, equal length >= 2"
                )
            if not np.all(np.diff(t) > 0.0):
                raise OrderingError(f"path {i}: times must be strictly increasing")
            if not np.all(v > 0.0):
                raise ParameterDomainError(f"path {i}: values must be positive")
        first = times[0][0]
        if any(t[0] != first for t in times):
            raise OrderingError("all paths must share the same first time")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def d(self) -> int:
        return len(self.times)

    @property
    def n_obs(self) -> int:
        """Total number of observations N."""
        return sum(t.size for t in self.times)

    @property
    def t_first(self) -> float:
        return float(self.times[0][0])

    @property
    def t_last(self) -> float:
        return max(float(t[-1]) for t in self.times)

    def initial_values(self) -> np.ndarray:
        return np.array([v[0] for v in self.values])

    def shifted(self, k: float) -> "PanelData":
        """The same panel on shifted clocks t -> t - k."""
        return PanelData(
            times=[t - k for t in self.times], values=[v.copy() for v in self.values]
        )


@dataclass(frozen=True)
class SufficientStats:
    """Data summaries the likelihood depends on.

    z1 = sum ln^2(x_j/x_{j-1}) / dt        (over all transitions)
    z2 = sum of per-path time spans
    z3 = sum of per-path ln(x_last/x_first)

    pair_* arrays describe the unique (t_{j-1}, t_j) transition pairs:
    counts, reciprocal time gaps and the per-pair sums of log-increments.
    u_times is the sorted union of observation times with pair_lo/pair_hi
    indexing into it, so eta + alpha^t is evaluated once per unique time.
    log_lik_offset is the data-only constant c with transition
    log-likelihood = -c - objective.
    """

    z1: float
    z2: float
    z3: float
    n_obs: int
    d: int
    u_times: np.ndarray
    pair_lo: np.ndarray
    pair_hi: np.ndarray
    pair_inv_dt: np.ndarray
    pair_count: np.ndarray
    pair_usum: np.ndarray
    log_x_first: np.ndarray
    log_lik_offset: float

    @classmethod
    def from_panel(cls, data: PanelData) -> "SufficientStats":
        s_all = np.concatenate([t[:-1] for t in data.times])
        t_all = np.concatenate([t[1:] for t in data.times])
        u_all = np.concatenate(
            [np.diff(np.log(v)) for v in data.values]
        )
        dt_all = t_all - s_all

        z1 = float(np.sum(u_all**2 / dt_all))
        z2 = float(sum(t[-1] - t[0] for t in data.times))
        z3 = float(sum(math.log(v[-1] / v[0]) for v in data.values))

        pairs = np.column_stack([s_all, t_all])
        uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
        n_pairs = uniq.shape[0]
        count = np.bincount(inverse, minlength=n_pairs).astype(float)
        usum = np.bincount(inverse, weights=u_all, minlength=n_pairs)

        u_times, flat_idx = np.unique(uniq.ravel(), return_inverse=True)
        idx = flat_idx.reshape(n_pairs, 2)

        return cls(
            z1=z1,
            z2=z2,
            z3=z3,
            n_obs=data.n_obs,
            d=data.d,
            u_times=u_times,
            pair_lo=idx[:, 0],
            pair_hi=idx[:, 1],
            pair_inv_dt=1.0 / (uniq[:, 1] - uniq[:, 0]),
            pair_count=count,
            pair_usum=usum,
            log_x_first=np.log(data.initial_values()),
            log_lik_offset=(
                0.5 * s_all.size * math.log(2.0 * math.pi)
                + float(sum(np.sum(np.log(v[1:])) for v in data.values))
                + 0.5 * float(np.sum(np.log(dt_all)))
            ),
        )

    @property
    def n_transitions(self) -> int:
        return self.n_obs - self.d


def _as_stats(data) -> SufficientStats:
    return data if isinstance(data, SufficientStats) else SufficientStats.from_panel(data)


def initial_mle(data) -> tuple[float, float]:
    """Sample mean and (biased) variance of the initial log-values.

    For d = 1 this is (ln x_11, 0), which selects the degenerate initial
    distribution downstream.
    """
    log_x1 = _as_stats(data).log_x_first
    mu1 = float(np.mean(log_x1))
    sigma1_sq = float(np.mean((log_x1 - mu1) ** 2))
    return mu1, sigma1_sq


def _check_theta(eta: float, alpha: float, sigma_sq: float = 1.0) -> None:
    if not eta > 0.0:
        raise ParameterDomainError(f"eta must be positive, got {eta}")
    if not 0.0 < alpha < 1.0:
        raise ParameterDomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not sigma_sq > 0.0:
        raise ParameterDomainError(f"sigma_sq must be positive, got {sigma_sq}")


def _pair_sums(
    stats: SufficientStats, eta: float, log_alpha: float
) -> tuple[float, float, float]:
    """(Y1, Y2, R) for a validated eta > 0 and log_alpha = ln(alpha).

    The one likelihood kernel: ln(eta + alpha^t) is evaluated once per
    unique time and T_ij once per unique transition pair.  It runs on
    every objective evaluation.
    """
    lw = np.log(eta + np.exp(stats.u_times * log_alpha))
    t_pair = lw.take(stats.pair_lo) - lw.take(stats.pair_hi)
    count = stats.pair_count
    inv_dt = stats.pair_inv_dt
    y1 = float(_sum(count * t_pair**2 * inv_dt))
    y2 = float(_sum(stats.pair_usum * t_pair * inv_dt))
    r = float(_sum(count * t_pair))
    return y1, y2, r


def eta_alpha_sums(data, eta: float, alpha: float) -> tuple[float, float, float]:
    """The parameter-dependent sums (Y1, Y2, R).

    Y1 = sum T_ij^2 / dt_ij,  Y2 = sum ln(x_ij/x_{i,j-1}) * T_ij / dt_ij,
    R  = per-path telescoped sum of T_ij.
    """
    _check_theta(eta, alpha)
    return _pair_sums(_as_stats(data), eta, math.log(alpha))


def _objective(
    stats: SufficientStats, eta: float, alpha: float, sigma_sq: float
) -> float:
    """The objective for validated parameters, or INFEASIBLE.

    g = (N-d)/2 * ln(sigma^2) + bracket / (2*sigma^2), where the bracket
    is the quadratic data term in Y1, Y2, R and the drift ln(alpha) - sigma^2/2.
    """
    log_alpha = math.log(alpha)
    y1, y2, r = _pair_sums(stats, eta, log_alpha)
    drift = log_alpha - 0.5 * sigma_sq
    bracket = (
        stats.z1
        + 4.0 * (y1 - y2)
        + drift * (drift * stats.z2 - 2.0 * (stats.z3 - 2.0 * r))
    )
    if not math.isfinite(bracket):
        return INFEASIBLE
    return 0.5 * stats.n_transitions * math.log(sigma_sq) + bracket / (2.0 * sigma_sq)


def log_likelihood(
    data,
    mu1: float,
    sigma1_sq: float,
    eta: float,
    alpha: float,
    sigma_sq: float,
) -> float:
    """Exact log-likelihood of the panel.

    With sigma1_sq > 0 the initial values contribute their lognormal
    log-densities; with sigma1_sq = 0 (degenerate start, the d = 1 case)
    those terms are dropped and only the N - d transitions count.
    Returns -inf where the data term is not finite.
    """
    _check_theta(eta, alpha, sigma_sq)
    if sigma1_sq < 0.0:
        raise ParameterDomainError(f"sigma1_sq must be nonnegative, got {sigma1_sq}")
    stats = _as_stats(data)
    value = -stats.log_lik_offset - _objective(stats, eta, alpha, sigma_sq)
    if sigma1_sq > 0.0:
        value += (
            -0.5 * stats.d * math.log(2.0 * math.pi)
            - 0.5 * stats.d * math.log(sigma1_sq)
            - float(np.sum(stats.log_x_first))
            - float(np.sum((stats.log_x_first - mu1) ** 2)) / (2.0 * sigma1_sq)
        )
    return value


def objective(data, eta: float, alpha: float, sigma_sq: float) -> float:
    """Minimization target: -log-likelihood up to a data-only constant.

    g = (N-d)/2 * ln(sigma^2) + bracket / (2*sigma^2)

    Returns +inf (INFEASIBLE) where the data term is not finite, so
    metaheuristics stay total on their search box.
    """
    _check_theta(eta, alpha, sigma_sq)
    return _objective(_as_stats(data), eta, alpha, sigma_sq)
