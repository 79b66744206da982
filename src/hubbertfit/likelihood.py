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
instead of O(#transitions).  A panel whose paths share one grid (a
single series, a simulated panel) is summarised from that grid without
sorting; any other panel sorts its times and pairs.  The two ways reduce
the same elements in the same order, so their summaries agree bit for
bit (see SufficientStats.from_panel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import _check_eta_alpha, alpha_pow
from .errors import OrderingError, ParameterDomainError, _check_finite, _check_nonnegative, _check_positive

__all__ = [
    "PanelData",
    "SufficientStats",
    "initial_mle",
    "eta_alpha_sums",
    "log_likelihood",
    "objective",
    "profile_pass",
    "INFEASIBLE",
]

# Objective value returned where the data term is not finite (alpha^t
# overflowing at negative times); optimizers treat it as an
# always-rejected move.  eta + alpha^t itself cannot underflow to zero,
# since eta > 0.
INFEASIBLE = math.inf

# np.sum's pairwise reduction without its Python-level dispatch.
_sum = np.add.reduce


def _frozen_copy(x) -> np.ndarray:
    """A read-only float copy of x."""
    a = np.array(x, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PanelData:
    """d >= 1 sample paths: per-path time and value arrays.

    Times are finite and strictly increasing within each path, values
    finite and strictly positive, and every path starts at the same first
    time (required for the shared initial distribution).  The arrays are
    read-only copies of the caller's, so these checks, made once here,
    hold for the panel's lifetime.
    """

    times: list
    values: list

    def __post_init__(self) -> None:
        if len(self.times) == 0 or len(self.times) != len(self.values):
            raise ParameterDomainError("need matching, nonempty time/value lists")
        times = [_frozen_copy(t) for t in self.times]
        values = [_frozen_copy(v) for v in self.values]
        # the first fault in path order is raised
        for i, (t, v) in enumerate(zip(times, values)):
            if t.shape != v.shape or t.ndim != 1 or t.size < 2:
                raise ParameterDomainError(f"path {i}: times and values must be 1-d, equal length >= 2")
            if not (np.diff(t) > 0.0).all():
                raise OrderingError(f"path {i}: times must be strictly increasing")
            if not (v > 0.0).all():
                raise ParameterDomainError(f"path {i}: values must be positive")
            if not (np.isfinite(t).all() and np.isfinite(v).all()):
                raise ParameterDomainError(f"path {i}: times and values must be finite")
        if any(t[0] != times[0][0] for t in times):
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
        return PanelData(times=[t - k for t in self.times], values=self.values)


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
        """The summaries of a panel.

        A panel whose paths share one time grid (every single path does)
        is summarised from the grid and the (d, n) matrix of its values:
        the grid is u_times and its consecutive points are the pairs, each
        seen d times.  Every other panel sorts its times and its pairs.
        Both ways make the same floating-point reductions over the same
        elements in the same order (z1 and the offset's sums over the
        transitions in path order, pair_usum by sequential sums over the
        paths in path order), so they give the same bytes.
        """
        sizes = [t.size for t in data.times]
        times = np.concatenate(data.times)
        values = np.concatenate(data.values)
        log_v = np.log(values)
        d, n = len(sizes), sizes[0]
        if sizes.count(n) == d:
            # bitwise, so a path at -0.0 where another is at 0.0 is sorted
            rows = times.reshape(d, n).view(np.int64)
            if (rows == rows[0]).all():
                return cls._from_grid(times[:n], values.reshape(d, n), log_v.reshape(d, n))
        ends = np.cumsum(sizes)
        starts = ends - sizes
        within = np.ones(times.size - 1, dtype=bool)
        within[ends[:-1] - 1] = False  # drop the steps from one path to the next
        s_all = times[:-1][within]
        t_all = times[1:][within]
        u_all = np.diff(log_v)[within]
        dt_all = t_all - s_all

        z1 = float(_sum(u_all**2 / dt_all))
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
                + 0.5 * float(_sum(np.log(dt_all)))
            ),
        )

    @classmethod
    def _from_grid(cls, grid: np.ndarray, values: np.ndarray, log_v: np.ndarray) -> "SufficientStats":
        """from_panel's summaries of d paths on one grid of n times, from (d, n) values and their logs."""
        d, n = values.shape
        u = np.diff(log_v, axis=1)
        dt = np.diff(grid)
        span = float(grid[-1] - grid[0])
        return cls(
            # flat and C-ordered, these are the sort path's transitions in path order
            z1=float(_sum((u**2 / dt).ravel())),
            z2=float(sum([span] * d)),
            z3=float(sum(map(math.log, (values[:, -1] / values[:, 0]).tolist()))),
            n_obs=d * n,
            d=d,
            u_times=grid.copy(),
            pair_lo=np.arange(n - 1),
            pair_hi=np.arange(1, n),
            pair_inv_dt=1.0 / dt,
            pair_count=np.full(n - 1, float(d)),
            # accumulate adds the paths one by one, as bincount does; a
            # reduce over one column would add them pairwise
            pair_usum=np.add.accumulate(u, axis=0)[-1].copy(),
            log_x_first=log_v[:, 0].copy(),
            log_lik_offset=(
                0.5 * (d * (n - 1)) * math.log(2.0 * math.pi)
                + float(sum(_sum(log_v[:, 1:], axis=1).tolist()))
                + 0.5 * float(_sum(np.tile(np.log(dt), d)))
            ),
        )

    def shifted(self, k: float) -> "SufficientStats":
        """The same summaries on the shifted clock t -> t - k: only u_times depends on the clock.

        A copy of the fields and pair_weights, without a second __post_init__,
        whose _pair_memo starts empty.
        """
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, u_times=self.u_times - k, _pair_memo=(None, None, None))
        return new

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
    # np.mean's sum and division, without its wrapper
    mu1 = float(_sum(log_x1) / log_x1.size)
    sigma1_sq = float(_sum((log_x1 - mu1) ** 2) / log_x1.size)
    return mu1, sigma1_sq


def _check_initial(mu: float, sigma_sq: float) -> None:
    """The rule for the lognormal initial law N(mu, sigma_sq) of ln X(t0)."""
    _check_finite("the initial log-mean", mu)
    _check_nonnegative("the initial log-variance", sigma_sq)


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
    at equal (eta, log_alpha) returns the stored sums, so profile_pass's
    call to objective at the point _derivative_sums just summed costs no
    second pass.
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
    _check_eta_alpha(eta, alpha)
    return _pair_sums(_as_stats(data), eta, math.log(alpha))


def _bracket(stats: SufficientStats, sums, drift: float) -> float:
    """The objective's quadratic data term from the sums (Y1, Y2, R) at one (eta, alpha)."""
    y1, y2, r = sums
    return stats.z1 + 4.0 * (y1 - y2) + drift * (drift * stats.z2 - 2.0 * (stats.z3 - 2.0 * r))


def _objective(
    stats: SufficientStats, eta: float, alpha: float, sigma_sq: float
) -> float:
    """The objective for validated parameters, or INFEASIBLE.

    g = (N-d)/2 * ln(sigma^2) + bracket / (2*sigma^2), with the bracket
    at the drift ln(alpha) - sigma^2/2.
    """
    log_alpha = math.log(alpha)
    bracket = _bracket(stats, _pair_sums(stats, eta, log_alpha), log_alpha - 0.5 * sigma_sq)
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
    _check_eta_alpha(eta, alpha)
    _check_positive("sigma_sq", sigma_sq)
    _check_initial(mu1, sigma1_sq)
    stats = _as_stats(data)
    return _log_likelihood(stats, mu1, sigma1_sq, _objective(stats, eta, alpha, sigma_sq))


def _log_likelihood(stats: SufficientStats, mu1: float, sigma1_sq: float, value: float) -> float:
    """log_likelihood from the objective's value at the same (eta, alpha, sigma^2)."""
    value = -stats.log_lik_offset - value
    if sigma1_sq > 0.0:
        value += (
            -0.5 * stats.d * math.log(2.0 * math.pi)
            - 0.5 * stats.d * math.log(sigma1_sq)
            - float(_sum(stats.log_x_first))
            - float(_sum((stats.log_x_first - mu1) ** 2)) / (2.0 * sigma1_sq)
        )
    return value


def objective(data, eta: float, alpha: float, sigma_sq: float) -> float:
    """Minimization target: -log-likelihood up to a data-only constant.

    g = (N-d)/2 * ln(sigma^2) + bracket / (2*sigma^2)

    Returns +inf (INFEASIBLE) where the data term is not finite, so
    metaheuristics stay total on their search box.
    """
    _check_eta_alpha(eta, alpha)
    _check_positive("sigma_sq", sigma_sq)
    return _objective(_as_stats(data), eta, alpha, sigma_sq)


def _log_w(eta: float, alpha: float, t) -> np.ndarray:
    """The stack [ln(eta + alpha^t), d/d eta, d/d alpha of it], for scalar or array t."""
    a_t = alpha_pow(alpha, t)
    w = eta + a_t
    return np.array([np.log(w), 1.0 / w, t * a_t / alpha / w])


def _derivative_sums(stats: SufficientStats, eta: float, alpha: float) -> list:
    """The ten sums of one derivative pass at a validated (eta, alpha).

    _log_w is evaluated once per unique time and differenced over the
    pairs into T, T_eta and T_alpha, and the per-pair rows are reduced by
    one pairwise row sum, as in _pair_sums.  The sums are Y1, Y2 and R
    (with _pair_sums' own products, and stored in its memo); c*T_eta^2/dt,
    c*T_alpha^2/dt, c*T_eta*T_alpha/dt, c*T_eta and c*T_alpha (c the pair
    count, multiplied in the order the pinned covariances were recorded
    with); and d(Y1 - Y2)/d eta and d(Y1 - Y2)/d alpha.
    """
    per_time = _log_w(eta, alpha, stats.u_times)
    diff = per_time.take(stats.pair_lo, axis=1) - per_time.take(stats.pair_hi, axis=1)
    t_pair, d_eta_alpha = diff[0], diff[1:]
    terms = np.empty((10, t_pair.size))
    np.multiply(stats.pair_weights, t_pair, out=terms[:3])
    slope = 2.0 * terms[0] - stats.pair_weights[1]  # d(Y1 - Y2)/dT per pair
    terms[0] *= t_pair
    np.multiply(d_eta_alpha, d_eta_alpha, out=terms[3:5])
    terms[3:5] *= stats.pair_count
    np.multiply(d_eta_alpha, stats.pair_count, out=terms[6:8])
    np.multiply(terms[6], diff[2], out=terms[5])
    terms[3:6] *= stats.pair_inv_dt
    np.multiply(d_eta_alpha, slope, out=terms[8:])
    sums = _sum(terms, axis=1).tolist()
    object.__setattr__(stats, "_pair_memo", (eta, math.log(alpha), tuple(sums[:3])))
    return sums


def _information(stats: SufficientStats, sums: list, alpha: float, sigma_sq: float) -> list:
    """sigma^2 times the Fisher information in (eta, alpha, sigma^2), from _derivative_sums."""
    m1, m2, m3, x1, x2 = sums[3:8]
    z2 = stats.z2
    i_ee = 4.0 * m1
    i_ea = 4.0 * m3 + 2.0 * x1 / alpha
    i_aa = 4.0 * m2 + z2 / alpha**2 + 4.0 * x2 / alpha
    i_ev = -x1
    i_av = -x2 - z2 / (2.0 * alpha)
    i_vv = 0.5 * stats.n_transitions / sigma_sq + 0.25 * z2
    return [[i_ee, i_ea, i_ev], [i_ea, i_aa, i_av], [i_ev, i_av, i_vv]]


def profile_pass(
    stats: SufficientStats, eta: float, alpha: float, sigma_interior: tuple
) -> tuple:
    """The sigma-profiled objective at (eta, alpha), from one derivative pass.

    Returns (value, sigma, gradient, information, sums): the minimum over
    sigma of the objective, its minimizer, the profiled objective's
    (d/d eta, d/d alpha), which by the envelope theorem is the
    objective's at that fixed sigma, its information, the (ee, ea, aa)
    entries of the Schur complement of the sigma^2 entry of the Fisher
    information, and the pass's _derivative_sums, from which _information
    gives the whole Fisher information at (eta, alpha, sigma).
    sigma_interior is the closed (lower, upper) interval the minimizer is
    clipped to: the sigma entries of SolutionBox.interior.

    With v = sigma^2 the objective is (n/2) ln v + C0/(2v) + C1/2 + z2 v/8,
    n = N - d and C0 the bracket at drift ln(alpha); it falls before its
    one stationary point v* = 2(sqrt(n^2 + z2 C0) - n)/z2 (written below
    without the cancellation) and rises after.  The value is objective()
    at sqrt(v*) clipped, which reuses the sums of this pass.
    """
    _check_eta_alpha(eta, alpha)
    sums = _derivative_sums(stats, eta, alpha)
    log_alpha = math.log(alpha)
    c0 = _bracket(stats, sums[:3], log_alpha)
    n = stats.n_transitions
    v = 2.0 * c0 / (math.sqrt(n * n + stats.z2 * c0) + n)
    lo, hi = sigma_interior
    # not v > 0 also holds for a NaN v, where objective() is INFEASIBLE at any sigma
    sigma = min(max(math.sqrt(v) if v > 0.0 else 0.0, lo), hi)
    sigma_sq = sigma * sigma
    value = objective(stats, eta, alpha, sigma_sq)

    # d bracket/d theta over 2 sigma^2, with the bracket's drift ln(alpha) - sigma^2/2
    _, _, r, _, _, _, x1, x2, slope_eta, slope_alpha = sums
    drift = log_alpha - 0.5 * sigma_sq
    gradient = (
        2.0 * (slope_eta + drift * x1) / sigma_sq,
        2.0 * (slope_alpha + drift * x2 + (r + 0.5 * (drift * stats.z2 - stats.z3)) / alpha) / sigma_sq,
    )
    (i_ee, i_ea, i_ev), (_, i_aa, i_av), (_, _, i_vv) = _information(stats, sums, alpha, sigma_sq)
    e_v, a_v = i_ev / i_vv, i_av / i_vv
    information = ((i_ee - i_ev * e_v) / sigma_sq, (i_ea - i_ev * a_v) / sigma_sq, (i_aa - i_av * a_v) / sigma_sq)
    return value, sigma, gradient, information, sums
