"""End-to-end fitting and asymptotic uncertainty.

The pipeline shifts all times so the panel starts at 0 (which rescales
eta to eta' = alpha^(-first_time) * eta and keeps it well away from the
underflow regime), estimates the initial-distribution parameters in
closed form, builds the bounded search box, and minimizes the likelihood
objective.  By default sigma^2 is profiled out in closed form and
Nelder-Mead searches (eta, alpha); the paper's simulated annealing and
hybrid VNS-SA search over (eta, alpha, sigma) remain available.

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
from .curve import CurveParams, _check_eta_alpha, alpha_pow, peak_time, peak_value
from .errors import ConditioningError, OrderingError, ParameterDomainError
from .likelihood import PanelData, SufficientStats
from .process import conditional_mean

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

# The profile search evaluates these logit points (u_eta, u_alpha) and starts
# Nelder-Mead at the best; the box centre comes first, so it wins a tie.
_STARTS = (
    (0.0, 0.0),
    (-2.0, -2.0), (-2.0, 0.0), (-2.0, 2.0),
    (0.0, -2.0), (0.0, 2.0),
    (2.0, -2.0), (2.0, 0.0), (2.0, 2.0),
)


def _dlog_w(eta: float, alpha: float, t):
    """(d/d eta, d/d alpha) of ln(eta + alpha^t), for scalar or array t."""
    a_t = alpha_pow(alpha, t)
    w = eta + a_t
    return 1.0 / w, t * a_t / alpha / w


def fisher_information(theta, data) -> np.ndarray:
    """Fisher information of the transition likelihood.

    theta is the (eta, alpha, sigma) triple; the matrix is parametrized
    in (eta, alpha, sigma^2), which is the form whose inverse feeds the
    delta method below.  Built from the derivatives of ln(eta + alpha^t)
    at each unique observation time, differenced over the transition
    pairs; symmetric by construction.
    """
    eta, alpha, sigma = (float(v) for v in theta)
    _check_eta_alpha(eta, alpha)
    if not sigma > 0.0:
        raise ParameterDomainError(f"sigma must be positive, got {sigma}")
    stats = lik._as_stats(data)

    # dT/d(eta), dT/d(alpha) per pair, T = ln(eta+alpha^s) - ln(eta+alpha^t)
    d_eta, d_alpha = _dlog_w(eta, alpha, stats.u_times)
    te = d_eta.take(stats.pair_lo) - d_eta.take(stats.pair_hi)
    ta = d_alpha.take(stats.pair_lo) - d_alpha.take(stats.pair_hi)

    c = stats.pair_count
    inv_dt = stats.pair_inv_dt
    m1 = float(np.sum(c * te**2 * inv_dt))
    m2 = float(np.sum(c * ta**2 * inv_dt))
    m3 = float(np.sum(c * te * ta * inv_dt))
    x1 = float(np.sum(c * te))
    x2 = float(np.sum(c * ta))
    z2 = stats.z2
    n_trans = stats.n_transitions
    sigma_sq = sigma * sigma

    i_ee = 4.0 * m1
    i_ea = 4.0 * m3 + 2.0 * x1 / alpha
    i_aa = 4.0 * m2 + z2 / alpha**2 + 4.0 * x2 / alpha
    i_ev = -x1
    i_av = -x2 - z2 / (2.0 * alpha)
    i_vv = 0.5 * n_trans / sigma_sq + 0.25 * z2
    return (
        np.array([[i_ee, i_ea, i_ev], [i_ea, i_aa, i_av], [i_ev, i_av, i_vv]])
        / sigma_sq
    )


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
    jac = np.diag([1.0, 1.0, 1.0 / (2.0 * sigma)])
    return jac @ np.linalg.inv(info) @ jac


def delta_error(grad, cov: np.ndarray):
    """Standard error sqrt(grad^T cov grad) of a scalar function, per row of an (n, 3) grad."""
    grad = np.asarray(grad, dtype=float)
    cov = np.asarray(cov, dtype=float)
    q = (grad[..., None, :] @ cov @ grad[..., :, None])[..., 0, 0]
    negative = q < -1e-12 * np.maximum(1.0, np.trace(cov) * np.sum(grad * grad, axis=-1))
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
    de_s, da_s = _dlog_w(eta, alpha, s)
    de_t, da_t = _dlog_w(eta, alpha, t)
    m = conditional_mean(t, y, s, eta, alpha)
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
        return eta * alpha_pow(alpha, self.time_shift_k)

    @property
    def initial_mean(self) -> float:
        return math.exp(self.mu1_hat + 0.5 * self.sigma1_sq_hat)


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
    if not np.all(np.isfinite(fit.cov)):
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
        if not 0.0 < y < math.inf:
            raise ParameterDomainError(f"conditioning value y must be positive and finite, got {y}")
        if not math.isfinite(s):
            raise ParameterDomainError(f"conditioning time s must be finite, got {s}")
        y_eff, s_shifted = y, s - k

    grads = np.stack([peak_time_gradient(eta, alpha), peak_gradient(eta, alpha, y_eff, s_shifted)])
    t_se, p_se = delta_error(grads, fit.cov).tolist()
    return PeakEstimate(
        peak_time=peak_time(eta, alpha) + k,
        peak_time_se=t_se,
        peak=peak_value(CurveParams(eta, alpha, y_eff, s_shifted)),
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
    if not 0.0 < level < 1.0:
        raise ParameterDomainError(f"level must lie in (0, 1), got {level}")
    if not math.isfinite(s):
        raise ParameterDomainError(f"s must be finite, got {s}")
    times = np.atleast_1d(np.asarray(horizon_times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ParameterDomainError("horizon times must be finite")
    if np.any(times <= s):
        raise OrderingError("all horizon times must lie strictly after s")
    if not 0.0 < x_s < math.inf:
        raise ParameterDomainError(f"x_s must be positive and finite, got {x_s}")
    _require_cov(fit, "forecast bands")
    eta, alpha, _ = fit.theta_hat
    k = fit.time_shift_k
    s_shift = s - k
    point = conditional_mean(times - k, x_s, s_shift, eta, alpha)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * delta_error(conditional_mean_gradient(eta, alpha, x_s, s_shift, times - k), fit.cov)
    return Forecast(
        times=times,
        point=point,
        lower=point - half,
        upper=point + half,
        level=level,
        s=s,
        x_s=x_s,
    )


def _profile_search(stats: SufficientStats, box: bounds_mod.SolutionBox):
    """Nelder-Mead over (eta, alpha) on the profiled objective.

    u in R^2 maps to the box by a logistic per coordinate, 1/(1 + e^-u)
    written with tanh so that it cannot overflow, and is then clipped to
    box.interior, so every point searched lies strictly inside the box.
    The objective is evaluated on the grid u in {-2, 0, 2}^2 and
    Nelder-Mead starts at its best point, the box centre u = 0 on a tie:
    a single start at the centre could drift to an edge, where the
    logistic flattens the objective, and stop there far from the optimum.
    Returns theta, its objective value, the objective calls made (grid
    included) and the stop reason.
    """
    (lo_eta, lo_alpha), (w_eta, w_alpha) = box.lower[:2].tolist(), box.widths[:2].tolist()
    (in_lo_eta, in_hi_eta), (in_lo_alpha, in_hi_alpha), sigma_interior = np.transpose(box.interior).tolist()

    def point(u):
        # np.tanh, not math.tanh: the two differ in the last bit
        u_eta, u_alpha = u
        g_eta = 0.5 * (1.0 + float(np.tanh(0.5 * u_eta)))
        g_alpha = 0.5 * (1.0 + float(np.tanh(0.5 * u_alpha)))
        eta = min(max(lo_eta + w_eta * g_eta, in_lo_eta), in_hi_eta)
        alpha = min(max(lo_alpha + w_alpha * g_alpha, in_lo_alpha), in_hi_alpha)
        return eta, alpha

    def profile(u):
        return lik.profile_objective(stats, *point(u), sigma_interior)[0]

    result = opt.nelder_mead(profile, min(_STARTS, key=profile))
    eta, alpha = point(result.best.theta)
    value, sigma = lik.profile_objective(stats, eta, alpha, sigma_interior)
    return (eta, alpha, sigma), value, len(_STARTS) + result.n_evals + 1, result.stop_reason


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

    Times are shifted by k = first observation time, the box is built
    from the shifted panel (with the optional URR), and the objective is
    minimized over (eta, alpha, sigma) by the requested algorithm.

    "profile" (the default) solves sigma^2 in closed form and runs one
    deterministic Nelder-Mead over (eta, alpha) from the best of a 3x3
    grid of points in the box (see _profile_search), stopping once its
    simplex agrees to 1e-10 in value; it records seed but does not use
    it, ignores sa_config and vns_config, and takes only n_restarts = 1.
    "sa" and "vns-sa" are the paper's annealing searches over all three
    parameters, best of n_restarts.

    For every algorithm, warnings names each parameter of theta_hat that
    lies within 1e-6 of its box width from an edge of the box (a sigma
    clipped to the box included): there the optimum may lie outside the
    box and the asymptotic errors, which assume an interior optimum, do
    not hold.
    """
    if algorithm == "profile" and n_restarts != 1:
        raise ParameterDomainError(
            f"the profile algorithm is deterministic and takes no restarts, got n_restarts={n_restarts}"
        )
    k = data.t_first
    shifted = data.shifted(k)
    stats = SufficientStats.from_panel(shifted)
    mu1, sigma1_sq = lik.initial_mle(stats)
    box = bounds_mod.build_box(shifted, urr=urr, sigma_cap=sigma_cap)

    if algorithm == "profile":
        theta, value, n_evals, stop_reason = _profile_search(stats, box)
    else:
        theta, value, n_evals, stop_reason = _annealing_search(
            stats, box, sa_config, vns_config, seed, n_restarts, algorithm
        )
    eta_hat, alpha_hat, sigma_hat = theta

    warnings = []
    if algorithm == "profile" and stop_reason == "max_iter":
        warnings.append(
            "the profile search stopped at the Nelder-Mead iteration cap "
            "without converging"
        )
    at_bound = np.minimum(theta - box.lower, box.upper - theta) <= _AT_BOUND * box.widths
    if at_bound.any():
        names = ", ".join(name for name, edge in zip(("eta", "alpha", "sigma"), at_bound) if edge)
        warnings.append(
            f"{names} ended within {_AT_BOUND:g} of the box width from an edge of "
            "the search box; the optimum may lie outside the box, and the "
            "standard errors assume an interior one"
        )
    info = fisher_information((eta_hat, alpha_hat, sigma_hat), stats)
    try:
        cov = asymptotic_cov(info, sigma_hat)
    except ConditioningError as exc:
        warnings.append(str(exc))
        cov = np.full((3, 3), np.nan)

    ll = lik.log_likelihood(
        stats, mu1, sigma1_sq, eta_hat, alpha_hat, sigma_hat**2
    )
    return FitResult(
        theta_hat=theta,
        mu1_hat=mu1,
        sigma1_sq_hat=sigma1_sq,
        objective_value=value,
        log_likelihood=ll,
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
