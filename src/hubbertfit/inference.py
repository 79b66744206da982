"""End-to-end fitting and asymptotic uncertainty.

The pipeline moves the panel's summaries to a clock that starts at 0
(which rescales eta to eta' = alpha^(-first_time) * eta and keeps it
well away from the underflow regime), estimates the initial-distribution
parameters in closed form, builds the bounded search box, and minimizes
the likelihood objective.  By default sigma^2 is profiled out in closed
form and Fisher scoring searches (eta, alpha); the paper's simulated
annealing and hybrid VNS-SA search over (eta, alpha, sigma) remain
available.

Standard errors come from the Fisher information of the transition
likelihood; errors of parametric functions (peak, peak time, forecast
means) follow by the delta method with analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import bounds as bounds_mod
from . import likelihood as lik
from . import optimize as opt
from .curve import CurveParams, _check_eta_alpha, _hubbert_value, alpha_pow, peak_time, peak_value, shift_parameters
from .errors import ConditioningError, OrderingError, ParameterDomainError, _check_count
from .errors import _check_all_finite, _check_finite, _check_positive, _check_unit_interval
from .likelihood import PanelData, SufficientStats
from .process import InitialDistribution, conditional_mean

__all__ = [
    "FitResult",
    "Forecast",
    "PeakEstimate",
    "fisher_information",
    "asymptotic_cov",
    "delta_error",
    "peak_time_gradient",
    "peak_gradient",
    "conditional_mean_gradient",
    "estimate_peak",
    "forecast",
    "fit",
]

_COND_LIMIT = 1e12

# fit warns about each parameter of theta_hat within this fraction of its
# box width from an edge of the box.
_AT_BOUND = 1e-6

# The profile search's settings; see _profile_search.
_MAX_ITER = 100
_DECREMENT = 2e-10
_ARMIJO = 1e-4


def fisher_information(theta, data) -> np.ndarray:
    """Fisher information of the transition likelihood.

    theta is the (eta, alpha, sigma) triple; the matrix is parametrized
    in (eta, alpha, sigma^2), which is the form whose inverse feeds the
    delta method below.  Built from the derivatives of ln(eta + alpha^t)
    at each unique observation time, differenced over the transition
    pairs, by the derivative pass of the profile search; symmetric by
    construction.
    """
    eta, alpha, sigma = (float(v) for v in theta)
    _check_eta_alpha(eta, alpha)
    _check_positive("sigma", sigma)
    stats = lik._as_stats(data)
    return _fisher(stats, lik._derivative_sums(stats, eta, alpha), alpha, sigma)


def _fisher(stats: SufficientStats, sums: list, alpha: float, sigma: float) -> np.ndarray:
    """The Fisher information in (eta, alpha, sigma^2) from the sums of a derivative pass at (eta, alpha)."""
    sigma_sq = sigma * sigma
    return np.array(lik._information(stats, sums, alpha, sigma_sq)) / sigma_sq


def asymptotic_cov(info: np.ndarray, sigma: float) -> np.ndarray:
    """Covariance of (eta, alpha, sigma) from the (eta, alpha, sigma^2) information.

    Raises ConditioningError when info is numerically singular; the
    condition number does not depend on the scale of info, so the total
    and the per-observation information gate alike.  The sigma^2 row and
    column of the inverse are mapped to sigma by the Jacobian 1/(2 sigma).
    """
    info = np.asarray(info, dtype=float)
    cond = np.linalg.cond(info)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise ConditioningError(
            f"information matrix is numerically singular (cond ~ {cond:.3e})"
        )
    # jac @ inv @ jac for jac = diag(1, 1, j): each entry times its row's and then its
    # column's factor, the products the matrix product makes (its other terms are zeros)
    scale = np.array([1.0, 1.0, 1.0 / (2.0 * sigma)])
    return np.linalg.inv(info) * scale[:, None] * scale


def delta_error(grad, cov: np.ndarray):
    """Standard error sqrt(grad^T cov grad) of a scalar function, per row of an (n, 3) grad."""
    grad = np.asarray(grad, dtype=float)
    cov = np.asarray(cov, dtype=float)
    q = (grad[..., None, :] @ cov @ grad[..., :, None])[..., 0, 0]
    # only a negative q can fall below the (negative) tolerance, so it is built only then
    negative = (q < 0.0).any() and q < -1e-12 * np.maximum(1.0, np.trace(cov) * np.sum(grad * grad, axis=-1))
    if np.any(negative):
        raise ConditioningError(f"negative delta-method quadratic form {q[negative].min()}")
    return np.sqrt(np.maximum(q, 0.0))


# ---------------------------------------------------------------------------
# Analytic gradients with respect to (eta, alpha, sigma)
# ---------------------------------------------------------------------------


def peak_time_gradient(eta: float, alpha: float) -> np.ndarray:
    """Gradient of t_max = ln(eta)/ln(alpha)."""
    la = math.log(alpha)
    return np.array(
        [1.0 / (eta * la), -math.log(eta) / (alpha * la * la), 0.0]
    )


def peak_gradient(eta: float, alpha: float, y: float, s: float) -> np.ndarray:
    """Gradient of the peak value y*(eta+alpha^s)^2/(4*eta*alpha^s).

    The expression is symmetric in (eta, alpha^s), which gives matching
    signs on the two partials; the sigma component is zero.
    """
    a = alpha_pow(alpha, s)
    d_eta = y * (eta + a) * (eta - a) / (4.0 * eta**2 * a)
    d_a = y * (eta + a) * (a - eta) / (4.0 * eta * a**2)
    return np.array([d_eta, d_a * s * a / alpha, 0.0])


def conditional_mean_gradient(eta: float, alpha: float, y: float, s: float, t) -> np.ndarray:
    """Gradient of m(t | y, s) = y*((eta+alpha^s)/(eta+alpha^t))^2*alpha^(t-s).

    An array of n times t gives an (n, 3) stack, one gradient per time.
    """
    return _mean_gradient(eta, alpha, s, t, conditional_mean(t, y, s, eta, alpha))


def _mean_gradient(eta: float, alpha: float, s: float, t, m) -> np.ndarray:
    """conditional_mean_gradient from m, the conditional mean at t."""
    _, de_s, da_s = lik._log_w(eta, alpha, s)
    _, de_t, da_t = lik._log_w(eta, alpha, t)
    dlog_eta = 2.0 * (de_s - de_t)
    dlog_alpha = 2.0 * (da_s - da_t) + (t - s) / alpha
    return np.stack([m * dlog_eta, m * dlog_alpha, np.zeros_like(m)], axis=-1)


# ---------------------------------------------------------------------------
# Fit pipeline
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    """MLE of the Hubbert diffusion with asymptotic errors.

    theta_hat is on the shifted clock (times minus time_shift_k), so its
    eta is the reparametrized eta' = alpha^(-k)*eta.  cov and std_errors
    are in the (eta, alpha, sigma) parametrization (see asymptotic_cov).
    """

    theta_hat: tuple
    mu1_hat: float
    sigma1_sq_hat: float
    objective_value: float
    log_likelihood: float
    fisher: np.ndarray
    cov: np.ndarray
    time_shift_k: float
    n_obs: int
    d: int
    box: bounds_mod.SolutionBox
    seed: object = None
    algorithm: str = "profile"
    n_restarts: int = 1
    stop_reason: str = ""
    n_evals: int = 0
    warnings: list = field(default_factory=list)

    @property
    def std_errors(self) -> tuple:
        """Asymptotic standard errors of (eta, alpha, sigma): sqrt(diag(cov))."""
        return tuple(float(v) for v in np.sqrt(np.diag(self.cov)))

    @property
    def eta_unshifted(self) -> float:
        """eta on the original clock: alpha^k * eta'."""
        eta, alpha, _ = self.theta_hat
        return shift_parameters(eta, alpha, -self.time_shift_k)

    @property
    def initial_mean(self) -> float:
        return InitialDistribution(self.mu1_hat, self.sigma1_sq_hat).mean


@dataclass
class PeakEstimate:
    peak_time: float
    peak_time_se: float
    peak: float
    peak_se: float


@dataclass
class Forecast:
    times: np.ndarray
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    s: float
    x_s: float


def _require_cov(fit: FitResult, what: str) -> None:
    if not np.isfinite(fit.cov).all():
        raise ConditioningError(
            "the fit has no finite covariance (singular Fisher information), "
            f"so {what} cannot be computed"
        )


def estimate_peak(fit: FitResult, y: float | None = None, s: float | None = None) -> PeakEstimate:
    """Peak time and peak value with delta-method errors.

    Without (y, s) the unconditional version is used: the peak of the
    mean function through the estimated initial mean.  With a
    conditioning point (y, s) on the original clock, the conditional
    version y*(eta+alpha^s')^2/(4*eta*alpha^s') applies, s' = s - k; y and
    s must be finite.  Times are reported on the original clock.  Raises
    ConditioningError when the fit has no finite covariance.
    """
    _require_cov(fit, "peak standard errors")
    eta, alpha, _ = fit.theta_hat
    k = fit.time_shift_k
    if (y is None) != (s is None):
        raise ParameterDomainError("provide both y and s, or neither")
    if y is None:
        y_eff, s_shifted = fit.initial_mean, 0.0
    else:
        _check_positive("conditioning value y", y)
        _check_finite("conditioning time s", s)
        y_eff, s_shifted = y, s - k
    # before the gradients: this refuses an initial mean that overflowed to inf
    curve = CurveParams(eta, alpha, y_eff, s_shifted)

    grads = np.stack([peak_time_gradient(eta, alpha), peak_gradient(eta, alpha, y_eff, s_shifted)])
    t_se, p_se = delta_error(grads, fit.cov).tolist()
    return PeakEstimate(
        peak_time=peak_time(eta, alpha) + k,
        peak_time_se=t_se,
        peak=peak_value(curve),
        peak_se=p_se,
    )


def forecast(
    fit: FitResult,
    s: float,
    x_s: float,
    horizon_times,
    level: float = 0.95,
) -> Forecast:
    """Conditional-mean forecast with symmetric normal confidence bands.

    Band width comes from the delta-method error of the conditional mean
    as a function of (eta, alpha); the confidence level defaults to 95%
    and is a free choice, not something the model pins down.  s, x_s and
    the horizon times must be finite.  Raises ConditioningError when the
    fit has no finite covariance.
    """
    _check_unit_interval("level", level)
    _check_finite("s", s)
    times = np.atleast_1d(np.asarray(horizon_times, dtype=float))
    _check_all_finite("horizon times", times)
    if np.any(times <= s):
        raise OrderingError("all horizon times must lie strictly after s")
    _check_positive("x_s", x_s)
    _require_cov(fit, "forecast bands")
    eta, alpha, _ = fit.theta_hat
    k = fit.time_shift_k
    s_shift, t_shift = s - k, times - k
    # conditional_mean's bytes without a second check of the horizon; the band shares the mean
    point = _hubbert_value(t_shift, CurveParams(eta, alpha, x_s, s_shift))
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * delta_error(_mean_gradient(eta, alpha, s_shift, t_shift, point), fit.cov)
    return Forecast(
        times=times,
        point=point,
        lower=point - half,
        upper=point + half,
        level=level,
        s=s,
        x_s=x_s,
    )


def _projected_step(x, gradient, information, lower, upper):
    """The scoring step -M_FF^-1 g_F over the free coordinates F of x.

    A coordinate on a bound of [lower, upper] is held there (its step is 0)
    while its gradient or its step points out of the box.  Where M_FF is
    not numerically positive definite, the step is the minimizer of the
    linear model over a box of the widths.
    """
    (x0, x1), (g0, g1), (m00, m01, m11), (lo0, lo1), (hi0, hi1) = x, gradient, information, lower, upper
    # -1 on the lower bound, 1 on the upper, 0 inside: e * s > 0 points s out of the box
    e0, e1 = (x0 >= hi0) - (x0 <= lo0), (x1 >= hi1) - (x1 <= lo1)
    held0, held1 = e0 * g0 < 0.0, e1 * g1 < 0.0
    while True:
        # M with the rows and columns of the held coordinates set to the identity's
        d0, d1 = (1.0 if held0 else m00), (1.0 if held1 else m11)
        c = 0.0 if held0 or held1 else m01
        det = d0 * d1 - c * c
        if d0 > 0.0 and det > 0.0:
            s0, s1 = (c * g1 - d1 * g0) / det, (c * g0 - d0 * g1) / det
        else:
            s0, s1 = -math.copysign(hi0 - lo0, g0), -math.copysign(hi1 - lo1, g1)
        s0, s1 = (0.0 if held0 else s0), (0.0 if held1 else s1)
        out0, out1 = e0 * s0 > 0.0, e1 * s1 > 0.0
        if not (out0 or out1):
            return s0, s1
        held0, held1 = held0 or out0, held1 or out1


def _profile_search(stats: SufficientStats, box: bounds_mod.SolutionBox):
    """Projected Fisher scoring over (eta, alpha) on the profiled objective.

    The search runs on the (eta, alpha) entries of box.interior; each
    evaluation is one lik.profile_pass, kept by its point, so no point is
    evaluated twice.  A _projected_step (Bertsekas 1982) is clipped to
    the box and halved until the Armijo rule
    f(x(t)) <= f(x) + _ARMIJO g.(x(t) - x) holds.  A start stops
    "converged" once the decrement -g.step of the step it would take is
    at most _DECREMENT, which bounds the gradient of the free
    coordinates (the held ones sit on a bound, gradient or step pointing
    out of the box), and "max_iter" after _MAX_ITER steps.  Of the starts
    with eta at mid-range and alpha at 12 %, 50 % and 88 % of its range,
    the best end wins (the earlier on a tie).  Returns theta, its
    objective value, the points evaluated, the stop reason and the sums
    of theta's derivative pass, from which _fisher gives its information.
    """
    (*lo, sigma_lo), (*hi, sigma_hi) = (b.tolist() for b in box.interior)
    (eta_lo, alpha_lo, _), (eta_w, alpha_w, _) = box.lower.tolist(), box.widths.tolist()
    passes = {}

    def evaluate(x):
        if x not in passes:
            passes[x] = lik.profile_pass(stats, *x, (sigma_lo, sigma_hi))
        return passes[x]

    ends = []
    for share in (0.12, 0.5, 0.88):
        x = (eta_lo + 0.5 * eta_w, alpha_lo + share * alpha_w)
        value, sigma, grad, info, sums = evaluate(x)
        stop_reason = "max_iter"
        for _ in range(_MAX_ITER):
            step = _projected_step(x, grad, info, lo, hi)
            decrement = -(grad[0] * step[0] + grad[1] * step[1])
            t = 1.0
            while t * decrement > _DECREMENT:
                trial_x = (min(max(x[0] + t * step[0], lo[0]), hi[0]), min(max(x[1] + t * step[1], lo[1]), hi[1]))
                trial = evaluate(trial_x)
                slope = grad[0] * (trial_x[0] - x[0]) + grad[1] * (trial_x[1] - x[1])
                if trial[0] <= value + _ARMIJO * slope:
                    break
                t *= 0.5
            else:
                stop_reason = "converged"
                break
            x, (value, sigma, grad, info, sums) = trial_x, trial
        ends.append((value, (*x, sigma), stop_reason, sums))
    value, theta, stop_reason, sums = min(ends, key=lambda end: end[0])
    return theta, value, len(passes), stop_reason, sums


def _annealing_search(stats, box, sa_config, vns_config, seed, n_restarts, algorithm):
    """The paper's SA or VNS-SA over (eta, alpha, sigma), best of n_restarts."""

    def objective(theta):
        # Python floats: scalar arithmetic on them is cheaper than on np.float64.
        eta, alpha, sigma = theta.tolist()
        return lik.objective(stats, eta, alpha, sigma * sigma)

    result = opt.multistart(
        objective,
        box,
        sa_config=sa_config,
        vns_config=vns_config,
        seed=seed,
        n_restarts=n_restarts,
        algorithm=algorithm,
    )
    stop_reason = (
        result.stop_reason if isinstance(result, opt.SAResult) else result.phase1.stop_reason
    )
    theta = tuple(float(v) for v in result.best.theta)
    return theta, result.best.value, result.n_evals, stop_reason


def fit(
    data: PanelData,
    urr: float | None = None,
    sa_config: opt.SAConfig = opt.SAConfig(),
    vns_config: opt.VNSConfig = opt.VNSConfig(),
    seed=None,
    n_restarts: int = 1,
    algorithm: str = "profile",
    sigma_cap: float = bounds_mod.SIGMA_UPPER_DEFAULT,
) -> FitResult:
    """Full estimation pipeline; deterministic for a fixed seed.

    The panel's summaries are moved to the clock t - k, k = first time
    (SufficientStats.shifted), the box is built from the panel and the
    optional URR, and the objective is minimized over (eta, alpha, sigma)
    by the requested algorithm.

    "profile" (the default) solves sigma^2 in closed form and runs
    deterministic projected Fisher scoring over the (eta, alpha) box from
    three points in it, keeping the best end point (see _profile_search);
    it records seed but does not use it, ignores sa_config and vns_config,
    and takes only n_restarts = 1.
    "sa" and "vns-sa" are the paper's annealing searches over all three
    parameters, best of n_restarts.

    A panel with fewer than two distinct transition pairs (t_{j-1}, t_j)
    is refused with ParameterDomainError: one pair fixes only one
    combination of eta and alpha, so any estimate would be arbitrary.

    For every algorithm, warnings names each parameter of theta_hat that
    lies within 1e-6 of its box width from an edge of the box (a sigma
    clipped to the box included): there the optimum may lie outside the
    box and the asymptotic errors, which assume an interior optimum, do
    not hold.
    """
    _check_count("n_restarts", n_restarts, 1)
    if algorithm == "profile" and n_restarts != 1:
        raise ParameterDomainError(
            f"the profile algorithm is deterministic and takes no restarts, got n_restarts={n_restarts}"
        )
    k = data.t_first
    stats = SufficientStats.from_panel(data).shifted(k)
    if stats.pair_count.size < 2:
        raise ParameterDomainError(
            "the panel has one distinct transition pair (t_{j-1}, t_j), which "
            "identifies only one combination of eta and alpha; at least two are needed"
        )
    mu1, sigma1_sq = lik.initial_mle(stats)
    box = bounds_mod.build_box(data, urr=urr, sigma_cap=sigma_cap)

    if algorithm == "profile":
        theta, value, n_evals, stop_reason, sums = _profile_search(stats, box)
        info = _fisher(stats, sums, theta[1], theta[2])
    else:
        theta, value, n_evals, stop_reason = _annealing_search(
            stats, box, sa_config, vns_config, seed, n_restarts, algorithm
        )
        info = fisher_information(theta, stats)

    warnings = []
    if algorithm == "profile" and stop_reason == "max_iter":
        warnings.append(
            "the profile search stopped at its iteration cap without converging"
        )
    at_bound = np.minimum(theta - box.lower, box.upper - theta) <= _AT_BOUND * box.widths
    if at_bound.any():
        names = ", ".join(name for name, edge in zip(("eta", "alpha", "sigma"), at_bound) if edge)
        warnings.append(
            f"{names} ended within {_AT_BOUND:g} of the box width from an edge of "
            "the search box; the optimum may lie outside the box, and the "
            "standard errors assume an interior one"
        )
    try:
        cov = asymptotic_cov(info, theta[2])
    except ConditioningError as exc:
        warnings.append(str(exc))
        cov = np.full((3, 3), np.nan)

    return FitResult(
        theta_hat=theta,
        mu1_hat=mu1,
        sigma1_sq_hat=sigma1_sq,
        objective_value=value,
        # value is objective() at theta, sigma^2 = sigma * sigma, so this is log_likelihood() there
        log_likelihood=lik._log_likelihood(stats, mu1, sigma1_sq, value),
        fisher=info,
        cov=cov,
        time_shift_k=k,
        n_obs=stats.n_obs,
        d=stats.d,
        box=box,
        seed=seed,
        algorithm=algorithm,
        n_restarts=n_restarts,
        stop_reason=stop_reason,
        n_evals=n_evals,
        warnings=warnings,
    )
