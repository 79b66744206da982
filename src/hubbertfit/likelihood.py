"""Exact log-likelihood of a discretely observed panel.

The panel holds d sample paths x_ij observed at strictly increasing times
t_ij with a common first time.  The likelihood depends on the data only
through a handful of sums (Z1, Z2, Z3 and the parameter-dependent Y1, Y2,
R built from T_ij = ln((eta+alpha^t_{i,j-1})/(eta+alpha^t_ij))), so the
per-transition quantities are cached once and reused across the many
objective evaluations a fit performs.

Transitions with identical (t_{j-1}, t_j) pairs, which dominate when all
paths share one grid, are aggregated: each unique pair stores its count
and the summed log-increments, making one objective call O(#unique times)
instead of O(#transitions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import _check_eta_alpha
from .errors import OrderingError, ParameterDomainError

__all__ = [
    "PanelData",
    "SufficientStats",
    "initial_mle",
    "eta_alpha_sums",
    "log_likelihood",
    "objective",
    "profile_objective",
    "INFEASIBLE",
]

# Objective value returned where the data term is not finite (alpha^t
# overflowing at negative times); optimizers treat it as an
# always-rejected move.  eta + alpha^t itself cannot underflow to zero,
# since eta > 0.
INFEASIBLE = math.inf

# np.sum's pairwise reduction without its Python-level dispatch.
_sum = np.add.reduce


def _raise_path_error(i: int, t: np.ndarray, v: np.ndarray) -> None:
    """Raise the error of path i, which fails at least one check."""
    if not np.all(np.diff(t) > 0.0):
        raise OrderingError(f"path {i}: times must be strictly increasing")
    if not np.all(v > 0.0):
        raise ParameterDomainError(f"path {i}: values must be positive")
    raise ParameterDomainError(f"path {i}: times and values must be finite")


@dataclass(frozen=True)
class PanelData:
    """d >= 1 sample paths: per-path time and value arrays.

    Times are finite and strictly increasing within each path, values
    finite and strictly positive, and every path starts at the same first
    time (required for the shared initial distribution).
    """

    times: list
    values: list

    def __post_init__(self) -> None:
        if len(self.times) == 0 or len(self.times) != len(self.values):
            raise ParameterDomainError("need matching, nonempty time/value lists")
        times = [np.asarray(t, dtype=float) for t in self.times]
        values = [np.asarray(v, dtype=float) for v in self.values]
        # The paths before the first misshapen one are checked at once; the
        # first path that fails any check is reported, as a path-by-path
        # scan would.
        n_ok = next(
            (
                i
                for i, (t, v) in enumerate(zip(times, values))
                if t.shape != v.shape or t.ndim != 1 or t.size < 2
            ),
            len(times),
        )
        if n_ok:
            t_all = np.concatenate(times[:n_ok])
            v_all = np.concatenate(values[:n_ok])
            ends = np.cumsum([t.size for t in times[:n_ok]])
            rising = np.diff(t_all) > 0.0
            rising[ends[:-1] - 1] = True  # the steps from one path to the next
            ok = (v_all > 0.0) & np.isfinite(t_all) & np.isfinite(v_all)
            ok[1:] &= rising
            if not ok.all():
                i = int(np.searchsorted(ends, ok.argmin(), side="right"))
                _raise_path_error(i, times[i], values[i])
        if n_ok < len(times):
            raise ParameterDomainError(
                f"path {n_ok}: times and values must be 1-d, equal length >= 2"
            )
        if np.any(t_all[ends[:-1]] != t_all[0]):
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

    pair_weights, derived once from the pair arrays and read-only like
    the fields, is the (3, P) stack [pair_count * pair_inv_dt;
    pair_usum * pair_inv_dt; pair_count] of the per-pair factors of Y1
    (times T^2), Y2 and R (times T).
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

    # (eta, log_alpha, sums) of the last _pair_sums call on this object
    _pair_memo = (None, None, None)

    def __post_init__(self) -> None:
        # A plain attribute, not a field: field-wise comparisons of two
        # stats see only the data summaries.
        object.__setattr__(
            self,
            "pair_weights",
            np.stack(
                [self.pair_count * self.pair_inv_dt, self.pair_usum * self.pair_inv_dt, self.pair_count]
            ),
        )

    @classmethod
    def from_panel(cls, data: PanelData) -> "SufficientStats":
        sizes = [t.size for t in data.times]
        ends = np.cumsum(sizes)
        starts = ends - sizes
        times = np.concatenate(data.times)
        values = np.concatenate(data.values)
        log_v = np.log(values)
        within = np.ones(times.size - 1, dtype=bool)
        within[ends[:-1] - 1] = False  # drop the steps from one path to the next
        s_all = times[:-1][within]
        t_all = times[1:][within]
        u_all = np.diff(log_v)[within]
        dt_all = t_all - s_all

        z1 = float(np.sum(u_all**2 / dt_all))
        # z2, z3 and the offset are summed path by path, in path order; the
        # float sums, and so every fit's last bits, depend on that order
        z2 = float(sum((times[ends - 1] - times[starts]).tolist()))
        z3 = float(sum(map(math.log, (values[ends - 1] / values[starts]).tolist())))
        log_v_rest = sum(_sum(log_v[a + 1 : b]) for a, b in zip(starts.tolist(), ends.tolist()))

        # A pair (s, t) is keyed by the ranks of s and t among the unique
        # times; the keys sort in the lexicographic (s, t) order.
        u_times, rank = np.unique(times, return_inverse=True)
        n_u = u_times.size
        key = rank[:-1][within] * n_u + rank[1:][within]
        pair_key, inverse = np.unique(key, return_inverse=True)
        n_pairs = pair_key.size
        pair_lo, pair_hi = np.divmod(pair_key, n_u)
        count = np.bincount(inverse, minlength=n_pairs).astype(float)
        usum = np.bincount(inverse, weights=u_all, minlength=n_pairs)

        return cls(
            z1=z1,
            z2=z2,
            z3=z3,
            n_obs=times.size,
            d=len(sizes),
            u_times=u_times,
            pair_lo=pair_lo,
            pair_hi=pair_hi,
            pair_inv_dt=1.0 / (u_times[pair_hi] - u_times[pair_lo]),
            pair_count=count,
            pair_usum=usum,
            log_x_first=log_v[starts],
            log_lik_offset=(
                0.5 * s_all.size * math.log(2.0 * math.pi)
                + float(log_v_rest)
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
    _check_eta_alpha(eta, alpha)
    if not sigma_sq > 0.0:
        raise ParameterDomainError(f"sigma_sq must be positive, got {sigma_sq}")


def _pair_sums(
    stats: SufficientStats, eta: float, log_alpha: float
) -> tuple[float, float, float]:
    """(Y1, Y2, R) for a validated eta > 0 and log_alpha = ln(alpha).

    The one likelihood kernel: ln(eta + alpha^t) is evaluated once per
    unique time and T_ij once per unique transition pair; the three sums
    are one row-wise reduction of stats.pair_weights times (T^2, T, T).
    The reduction is numpy's pairwise sum, not a BLAS dot product, whose
    accumulation order depends on the CPU kernel chosen at run time; the
    seeded annealing path compares objective values exactly, so its
    output would then depend on the machine.  It runs on every objective
    evaluation, except that a repeat of the last call on the same stats
    at equal (eta, log_alpha) returns the stored sums, so
    profile_objective's call to objective at the point it just summed
    costs no second pass.
    """
    memo_eta, memo_log_alpha, sums = stats._pair_memo
    if eta == memo_eta and log_alpha == memo_log_alpha:
        return sums
    lw = np.log(eta + np.exp(stats.u_times * log_alpha))
    t_pair = lw.take(stats.pair_lo) - lw.take(stats.pair_hi)
    terms = stats.pair_weights * t_pair
    terms[0] *= t_pair
    sums = tuple(_sum(terms, axis=1).tolist())
    object.__setattr__(stats, "_pair_memo", (eta, log_alpha, sums))
    return sums


def eta_alpha_sums(data, eta: float, alpha: float) -> tuple[float, float, float]:
    """The parameter-dependent sums (Y1, Y2, R).

    Y1 = sum T_ij^2 / dt_ij,  Y2 = sum ln(x_ij/x_{i,j-1}) * T_ij / dt_ij,
    R  = per-path telescoped sum of T_ij.
    """
    _check_theta(eta, alpha)
    return _pair_sums(_as_stats(data), eta, math.log(alpha))


def _bracket(stats: SufficientStats, eta: float, log_alpha: float, drift: float) -> float:
    """The objective's quadratic data term in (Y1, Y2, R) at a validated (eta, ln(alpha))."""
    y1, y2, r = _pair_sums(stats, eta, log_alpha)
    return stats.z1 + 4.0 * (y1 - y2) + drift * (drift * stats.z2 - 2.0 * (stats.z3 - 2.0 * r))


def _objective(
    stats: SufficientStats, eta: float, alpha: float, sigma_sq: float
) -> float:
    """The objective for validated parameters, or INFEASIBLE.

    g = (N-d)/2 * ln(sigma^2) + bracket / (2*sigma^2), with the bracket
    at the drift ln(alpha) - sigma^2/2.
    """
    log_alpha = math.log(alpha)
    bracket = _bracket(stats, eta, log_alpha, log_alpha - 0.5 * sigma_sq)
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


def profile_objective(
    stats: SufficientStats, eta: float, alpha: float, sigma_interior: tuple
) -> tuple[float, float]:
    """(min over sigma of the objective at (eta, alpha), that sigma).

    sigma_interior is the closed (lower, upper) interval the minimizer is
    clipped to: the sigma entries of SolutionBox.interior, not the box's
    open sigma_range.  With v = sigma^2 the objective is
    (n/2) ln v + C0/(2v) + C1/2 + z2 v/8, n = N - d and C0 the bracket at
    drift ln(alpha).  Its derivative in v has the single root
    v* = 2(sqrt(n^2 + z2 C0) - n)/z2, written below without the
    cancellation; the objective falls before v* and rises after, so
    sqrt(v*) clipped to sigma_interior is the minimizer there.  The value
    is objective() at that sigma, so it is exactly the 3-d objective at
    the returned point; that call reuses the sums computed here.
    """
    _check_theta(eta, alpha)
    log_alpha = math.log(alpha)
    c0 = _bracket(stats, eta, log_alpha, log_alpha)
    n = stats.n_transitions
    v = 2.0 * c0 / (math.sqrt(n * n + stats.z2 * c0) + n)
    lo, hi = sigma_interior
    # not v > 0 also holds for a NaN v, where objective() is INFEASIBLE at any sigma
    sigma = min(max(math.sqrt(v) if v > 0.0 else 0.0, lo), hi)
    return objective(stats, eta, alpha, sigma * sigma), sigma
