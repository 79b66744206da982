import csv
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import hubbertfit as hf
from hubbertfit import inference
from hubbertfit.bounds import SolutionBox
from hubbertfit.datasets import KAZAKHSTAN_URR, NORWAY_URR, load_kazakhstan, load_norway
from hubbertfit.errors import ConditioningError, OrderingError, ParameterDomainError
from hubbertfit.likelihood import SufficientStats

TABLES = Path(__file__).parent / "data" / "forecast_tables.csv"

GRID = hf.PathGrid(np.arange(0.0, 51.0))


def simulated_stats(seed, eta=0.1, alpha=0.45, sigma=0.05, n_paths=50):
    p = hf.ProcessParams(
        eta=eta, alpha=alpha, sigma=sigma, init=hf.InitialDistribution.degenerate(100.0)
    )
    return SufficientStats.from_panel(hf.simulate_paths(p, GRID, n_paths, seed))


def synthetic_fit(eta, alpha, sigma, k, cov=None):
    cov = np.zeros((3, 3)) if cov is None else np.asarray(cov, dtype=float)
    return inference.FitResult(
        theta_hat=(eta, alpha, sigma),
        mu1_hat=math.log(100.0),
        sigma1_sq_hat=0.0,
        objective_value=0.0,
        log_likelihood=0.0,
        fisher=np.eye(3),
        cov=cov,
        time_shift_k=k,
        n_obs=0,
        d=1,
        box=SolutionBox(),
    )


def load_forecast_table(series):
    with open(TABLES, newline="") as handle:
        return [
            (int(r["year"]), float(r["mean"]))
            for r in csv.DictReader(handle)
            if r["series"] == series
        ]


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def test_fisher_symmetric_positive_definite():
    stats = simulated_stats(1)
    info = hf.fisher_information((0.1, 0.45, 0.05), stats)
    np.testing.assert_allclose(info, info.T)
    assert np.all(np.linalg.eigvalsh(info) > 0.0)


def test_fisher_additive_in_paths():
    p = hf.ProcessParams(
        eta=0.1, alpha=0.45, sigma=0.05, init=hf.InitialDistribution.degenerate(100.0)
    )
    panel = hf.simulate_paths(p, GRID, 4, seed=2)
    doubled = hf.PanelData(times=panel.times * 2, values=panel.values * 2)
    i1 = hf.fisher_information((0.1, 0.45, 0.05), panel)
    i2 = hf.fisher_information((0.1, 0.45, 0.05), doubled)
    np.testing.assert_allclose(i2, 2.0 * i1, rtol=1e-12)


def test_fisher_matches_average_numeric_hessian():
    # information equals the expected Hessian of -lnL in (eta, alpha, sigma^2);
    # check against the replication-averaged finite-difference Hessian
    eta, alpha, sigma = 0.1, 0.45, 0.05
    x0 = np.array([eta, alpha, sigma**2])
    h = 1e-5 * x0
    reps = 12
    acc = np.zeros((3, 3))
    for r in range(reps):
        stats = simulated_stats(300 + r)

        def neg_ll(v):
            return -hf.log_likelihood(stats, math.log(100.0), 0.0, v[0], v[1], v[2])

        hess = np.zeros((3, 3))
        for i in range(3):
            for j in range(i, 3):
                if i == j:
                    xp, xm = x0.copy(), x0.copy()
                    xp[i] += h[i]
                    xm[i] -= h[i]
                    hess[i, i] = (neg_ll(xp) - 2.0 * neg_ll(x0) + neg_ll(xm)) / h[i] ** 2
                else:
                    vals = []
                    for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                        x = x0.copy()
                        x[i] += si * h[i]
                        x[j] += sj * h[j]
                        vals.append(neg_ll(x))
                    hess[i, j] = hess[j, i] = (vals[0] - vals[1] - vals[2] + vals[3]) / (
                        4.0 * h[i] * h[j]
                    )
        acc += hess
    avg = acc / reps
    info = hf.fisher_information((eta, alpha, sigma), simulated_stats(300))
    # same expectation; replication noise dominates, so compare on the
    # correlation scale (off-diagonals can be tiny next to the diagonal)
    scale = np.sqrt(np.outer(np.diag(info), np.diag(info)))
    np.testing.assert_array_less(np.abs(avg - info) / scale, 0.05)


def reference_fisher(panel, eta, alpha, sigma):
    """Fisher information by a plain loop over every transition.

    Uses the per-pair form: with a = alpha^s, b = alpha^t, ws = eta + a,
    wt = eta + b, dT/d(eta) = (b - a)/(ws*wt) and dT/d(alpha) =
    (s*a/alpha*wt - t*b/alpha*ws)/(ws*wt).
    """
    m1 = m2 = m3 = x1 = x2 = z2 = 0.0
    n_trans = 0
    log_alpha = math.log(alpha)
    for times in panel.times:
        z2 += times[-1] - times[0]
        for s, t in zip(times[:-1], times[1:]):
            a, b = math.exp(s * log_alpha), math.exp(t * log_alpha)
            ws, wt = eta + a, eta + b
            te = (b - a) / (ws * wt)
            ta = (s * a / alpha * wt - t * b / alpha * ws) / (ws * wt)
            m1 += te * te / (t - s)
            m2 += ta * ta / (t - s)
            m3 += te * ta / (t - s)
            x1 += te
            x2 += ta
            n_trans += 1
    v = sigma * sigma
    return np.array(
        [
            [4.0 * m1, 4.0 * m3 + 2.0 * x1 / alpha, -x1],
            [4.0 * m3 + 2.0 * x1 / alpha, 4.0 * m2 + z2 / alpha**2 + 4.0 * x2 / alpha,
             -x2 - z2 / (2.0 * alpha)],
            [-x1, -x2 - z2 / (2.0 * alpha), 0.5 * n_trans / v + 0.25 * z2],
        ]
    ) / v


def test_fisher_matches_per_transition_reference():
    # irregular ragged panel: repeated (s, t) pairs across paths and
    # non-integer gaps, so the unique-pair aggregation is exercised
    times = [
        [0.0, 1.0, 2.5, 3.0, 4.7, 7.0],
        [0.0, 1.0, 2.5, 3.0, 6.2],
        [0.0, 0.3, 1.0, 2.5, 4.7, 7.0, 9.5],
        [0.0, 1.0, 2.5],
    ]
    rng = np.random.default_rng(4)
    values = [100.0 * np.exp(np.cumsum(rng.normal(0.1, 0.05, len(t)))) for t in times]
    panel = hf.PanelData(times=times, values=values)
    for eta, alpha, sigma in ((0.1, 0.45, 0.05), (0.3, 0.8, 0.07), (2.0, 0.95, 0.2)):
        info = hf.fisher_information((eta, alpha, sigma), panel)
        np.testing.assert_allclose(info, reference_fisher(panel, eta, alpha, sigma), rtol=1e-12)


def test_fisher_theta_validation():
    stats = simulated_stats(3, n_paths=2)
    for theta in ((0.0, 0.5, 0.05), (0.1, 1.0, 0.05), (0.1, 0.5, 0.0)):
        with pytest.raises(ParameterDomainError):
            hf.fisher_information(theta, stats)


def test_asymptotic_cov_inverts():
    # the sigma^2 variance 1/16 maps to sigma by the Jacobian 1/(2*sigma) = 1/4
    info = np.diag([4.0, 9.0, 16.0])
    cov = hf.asymptotic_cov(info, 2.0)
    np.testing.assert_allclose(cov, np.diag([1 / 4.0, 1 / 9.0, 1 / 256.0]))


def test_asymptotic_cov_rejects_singular():
    with pytest.raises(ConditioningError):
        hf.asymptotic_cov(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 0.5)


def test_delta_error_quadratic_form():
    cov = np.diag([4.0, 1.0, 0.25])
    assert hf.delta_error([1.0, 2.0, 4.0], cov) == pytest.approx(math.sqrt(12.0), rel=1e-14)
    with pytest.raises(ConditioningError):
        hf.delta_error([1.0, 0.0, 0.0], -np.eye(3))


def test_delta_error_on_a_stack_equals_the_rows():
    rng = np.random.default_rng(8)
    root = rng.normal(size=(3, 3))
    cov = root @ root.T * 1e-4
    grads = rng.normal(size=(40, 3)) * np.array([1e4, 1e3, 1.0])
    stacked = hf.delta_error(grads, cov)
    assert stacked.shape == (40,)
    assert stacked.tobytes() == np.array([hf.delta_error(g, cov) for g in grads]).tobytes()
    with pytest.raises(ConditioningError):
        hf.delta_error(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]), np.diag([-1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# Analytic gradients
# ---------------------------------------------------------------------------


def finite_diff(f, x, h=1e-7):
    grad = np.zeros(len(x))
    for i in range(len(x)):
        xp, xm = list(x), list(x)
        xp[i] += h * abs(x[i])
        xm[i] -= h * abs(x[i])
        grad[i] = (f(xp) - f(xm)) / (2.0 * h * abs(x[i]))
    return grad


def test_peak_time_gradient_matches_fd():
    eta, alpha = 0.0407, 0.8638
    grad = inference.peak_time_gradient(eta, alpha)
    fd = finite_diff(lambda v: math.log(v[0]) / math.log(v[1]), [eta, alpha])
    np.testing.assert_allclose(grad[:2], fd, rtol=1e-6)
    assert grad[2] == 0.0


def test_peak_gradient_matches_fd():
    eta, alpha, y, s = 0.0393, 0.8607, 3019.0, 19.0

    def peak(v):
        a = v[1] ** s
        return y * (v[0] + a) ** 2 / (4.0 * v[0] * a)

    grad = inference.peak_gradient(eta, alpha, y, s)
    np.testing.assert_allclose(grad[:2], finite_diff(peak, [eta, alpha]), rtol=1e-6)
    assert grad[2] == 0.0


def test_conditional_mean_gradient_matches_fd():
    eta, alpha, y, s, t = 0.0563, 0.9173, 1632.0, 22.0, 30.0

    def m(v):
        return hf.conditional_mean(t, y, s, v[0], v[1])

    grad = inference.conditional_mean_gradient(eta, alpha, y, s, t)
    np.testing.assert_allclose(grad[:2], finite_diff(m, [eta, alpha]), rtol=1e-6)
    assert grad[2] == 0.0


def test_conditional_mean_gradient_on_an_array_equals_the_points():
    eta, alpha, y, s = 0.0563, 0.9173, 1632.0, 22.0
    times = s + np.arange(0.5, 90.0, 0.5)
    stacked = inference.conditional_mean_gradient(eta, alpha, y, s, times)
    assert stacked.shape == (times.size, 3)
    per_point = np.array([inference.conditional_mean_gradient(eta, alpha, y, s, t) for t in times])
    assert stacked.tobytes() == per_point.tobytes()


# ---------------------------------------------------------------------------
# Peak estimation and forecasting against published figures
# ---------------------------------------------------------------------------


def test_peak_from_preperiod_estimates():
    # pre-peak window estimates predict the 2001 peak: time 2001.579,
    # conditional peak value 3133.323 through (1999, 3019)
    fit = synthetic_fit(0.0393, 0.8607, 0.0731, 1980.0)
    est = hf.estimate_peak(fit, y=3019.0, s=1999.0)
    assert est.peak_time == pytest.approx(2001.579, abs=0.02)
    assert est.peak == pytest.approx(3133.323, rel=5e-4)


def test_peak_full_window_estimates():
    fit = synthetic_fit(0.0407, 0.8638, 0.0634, 1980.0)
    est = hf.estimate_peak(fit)
    assert est.peak_time == pytest.approx(2001.858, abs=0.01)


def test_peak_prepeak_country_estimates():
    fit = synthetic_fit(0.0563, 0.9173, 0.0646, 1992.0)
    est = hf.estimate_peak(fit, y=1632.0, s=2014.0)
    assert est.peak_time == pytest.approx(2025.413, abs=0.1)
    assert est.peak == pytest.approx(2058.396, rel=5e-3)


def test_peak_time_unshifts_by_k():
    a = hf.estimate_peak(synthetic_fit(0.1, 0.45, 0.05, 0.0))
    b = hf.estimate_peak(synthetic_fit(0.1, 0.45, 0.05, 25.0))
    assert b.peak_time == pytest.approx(a.peak_time + 25.0, rel=1e-12)


def test_peak_uses_curve_formulas():
    est = hf.estimate_peak(synthetic_fit(0.0563, 0.9173, 0.0646, 1992.0), y=1632.0, s=2014.0)
    assert est.peak_time == hf.peak_time(0.0563, 0.9173) + 1992.0
    assert est.peak == hf.peak_value(hf.CurveParams(0.0563, 0.9173, 1632.0, 22.0))


def test_peak_argument_validation():
    fit = synthetic_fit(0.1, 0.45, 0.05, 0.0)
    with pytest.raises(ParameterDomainError):
        hf.estimate_peak(fit, y=3.0)
    with pytest.raises(ParameterDomainError):
        hf.estimate_peak(fit, y=-3.0, s=1.0)
    for y, s, name in ((math.nan, 1.0, "y"), (math.inf, 1.0, "y"), (3.0, math.nan, "s"), (3.0, -math.inf, "s")):
        with pytest.raises(ParameterDomainError, match=rf"\b{name} must"):
            hf.estimate_peak(fit, y=y, s=s)


def test_forecast_matches_published_decline_table():
    fit = synthetic_fit(0.0407, 0.8638, 0.0634, 1980.0)
    rows = load_forecast_table("norway_scen1")
    years = np.array([float(y) for y, _ in rows])
    fc = hf.forecast(fit, 2014.0, 1568.0, years)
    for (year, ref), got in zip(rows, fc.point):
        assert got == pytest.approx(ref, rel=1e-3), year


def test_forecast_matches_published_growth_table():
    fit = synthetic_fit(0.0563, 0.9173, 0.0646, 1992.0)
    rows = load_forecast_table("kazakhstan")
    years = np.array([float(y) for y, _ in rows])
    fc = hf.forecast(fit, 2014.0, 1632.0, years)
    for (year, ref), got in zip(rows, fc.point):
        assert got == pytest.approx(ref, rel=1e-3), year


def test_forecast_bands_symmetric_and_ordered():
    cov = np.diag([1e-6, 1e-6, 1e-8])
    fit = synthetic_fit(0.0563, 0.9173, 0.0646, 1992.0, cov=cov)
    fc = hf.forecast(fit, 2014.0, 1632.0, np.arange(2015.0, 2020.0))
    assert np.all(fc.lower < fc.point) and np.all(fc.point < fc.upper)
    np.testing.assert_allclose(fc.point - fc.lower, fc.upper - fc.point, rtol=1e-10)
    wider = hf.forecast(fit, 2014.0, 1632.0, np.arange(2015.0, 2020.0), level=0.99)
    assert np.all(wider.upper - wider.lower > fc.upper - fc.lower)


def test_forecast_validation():
    fit = synthetic_fit(0.1, 0.45, 0.05, 0.0)
    with pytest.raises(OrderingError):
        hf.forecast(fit, 10.0, 5.0, [9.0])
    with pytest.raises(ParameterDomainError):
        hf.forecast(fit, 10.0, -5.0, [11.0])
    with pytest.raises(ParameterDomainError):
        hf.forecast(fit, 10.0, 5.0, [11.0], level=1.0)
    for s, x_s, horizon, name in (
        (math.nan, 5.0, [11.0], "s"),
        (-math.inf, 5.0, [11.0], "s"),
        (10.0, math.nan, [11.0], "x_s"),
        (10.0, math.inf, [11.0], "x_s"),
        (10.0, 5.0, [11.0, math.nan], "horizon times"),
        (10.0, 5.0, [11.0, math.inf], "horizon times"),
    ):
        with pytest.raises(ParameterDomainError, match=rf"^{name} must"):
            hf.forecast(fit, s, x_s, horizon)


def test_forecast_rejects_fit_without_covariance():
    # A fit whose Fisher matrix was singular stores a NaN cov; its bands
    # would be NaN, so forecast refuses instead of returning them.
    fit = synthetic_fit(0.0498, 0.8704, 0.0612, 1980.0, cov=np.full((3, 3), np.nan))
    with pytest.raises(ConditioningError, match="covariance"):
        hf.forecast(fit, 2014.0, 80.0, np.arange(2015.0, 2020.0))


def test_peak_rejects_fit_without_covariance():
    # NaN cov would give NaN peak standard errors; refuse instead.
    fit = synthetic_fit(0.0393, 0.8607, 0.0731, 1980.0, cov=np.full((3, 3), np.nan))
    with pytest.raises(ConditioningError, match="covariance"):
        hf.estimate_peak(fit)
    with pytest.raises(ConditioningError, match="covariance"):
        hf.estimate_peak(fit, y=3019.0, s=1999.0)


# ---------------------------------------------------------------------------
# End-to-end fit
# ---------------------------------------------------------------------------

FAST_SA = hf.SAConfig(chain_length=20, t_final=10.0, init_probe_count=30)


def small_panel(seed=0):
    p = hf.ProcessParams(
        eta=0.1, alpha=0.45, sigma=0.05, init=hf.InitialDistribution.degenerate(100.0)
    )
    grid = hf.PathGrid(np.arange(0.0, 21.0))
    return hf.simulate_paths(p, grid, 10, seed)


def test_fit_recovers_rough_parameters():
    fit = hf.fit(small_panel(), seed=5, sa_config=FAST_SA)
    eta, alpha, sigma = fit.theta_hat
    assert abs(eta - 0.1) < 0.05
    assert abs(alpha - 0.45) < 0.1
    assert abs(sigma - 0.05) < 0.02
    assert fit.box.contains(fit.theta_hat)
    assert math.isfinite(fit.log_likelihood)


def test_fit_covariance_and_std_errors_from_fisher():
    fit = hf.fit(small_panel(), seed=5, sa_config=FAST_SA)
    np.testing.assert_array_equal(fit.cov, hf.asymptotic_cov(fit.fisher, fit.theta_hat[2]))
    assert fit.std_errors == tuple(np.sqrt(np.diag(fit.cov)))


def test_fit_deterministic_field_for_field():
    a = hf.fit(small_panel(), seed=9, sa_config=FAST_SA)
    b = hf.fit(small_panel(), seed=9, sa_config=FAST_SA)
    assert a.theta_hat == b.theta_hat
    assert a.objective_value == b.objective_value
    assert a.log_likelihood == b.log_likelihood
    np.testing.assert_array_equal(a.cov, b.cov)
    assert a.std_errors == b.std_errors
    assert a.n_evals == b.n_evals
    assert a.stop_reason == b.stop_reason


def test_fit_shifts_calendar_times():
    panel = small_panel(3)
    calendar = hf.PanelData(times=[t + 1980.0 for t in panel.times], values=panel.values)
    fit = hf.fit(calendar, seed=2, sa_config=FAST_SA)
    assert fit.time_shift_k == 1980.0
    est = hf.estimate_peak(fit)
    assert 1980.0 < est.peak_time < 2000.0
    # unshifted eta is alpha^k * eta', minuscule for calendar-scale k
    assert fit.eta_unshifted == pytest.approx(
        fit.theta_hat[0] * fit.theta_hat[1] ** 1980.0, rel=1e-10
    )


def test_fit_matches_shifted_fit():
    panel = small_panel(4)
    calendar = hf.PanelData(times=[t + 1980.0 for t in panel.times], values=panel.values)
    a = hf.fit(panel, seed=6, sa_config=FAST_SA)
    b = hf.fit(calendar, seed=6, sa_config=FAST_SA)
    # same shifted panel internally, so identical estimates
    assert a.theta_hat == b.theta_hat
    assert b.time_shift_k == 1980.0


def test_fit_respects_urr_box():
    panel = small_panel(7)
    fit = hf.fit(panel, urr=5.0e4, seed=1, sa_config=FAST_SA)
    assert fit.box.alpha_range[1] < 1.0
    assert fit.theta_hat[1] < fit.box.alpha_range[1]


def test_fit_sa_algorithm_not_better_than_hybrid():
    panel = small_panel(8)
    sa = hf.fit(panel, seed=3, algorithm="sa", sa_config=FAST_SA)
    hybrid = hf.fit(panel, seed=3, algorithm="vns-sa", sa_config=FAST_SA)
    assert hybrid.objective_value <= sa.objective_value


# ---------------------------------------------------------------------------
# The default fit: Nelder-Mead on the sigma-profiled likelihood
# ---------------------------------------------------------------------------


def test_profile_fit_is_deterministic_and_ignores_the_annealer_settings():
    panel = small_panel()
    a = hf.fit(panel, seed=1)
    b = hf.fit(panel, seed=2, sa_config=hf.SAConfig(chain_length=3), vns_config=hf.VNSConfig(k_max=1))
    assert (a.theta_hat, a.objective_value, a.n_evals) == (b.theta_hat, b.objective_value, b.n_evals)
    assert (a.algorithm, a.stop_reason, b.seed) == ("profile", "converged", 2)
    assert a.box.contains(a.theta_hat)
    stats = SufficientStats.from_panel(panel.shifted(panel.t_first))
    eta, alpha, sigma = a.theta_hat
    assert a.objective_value == hf.objective(stats, eta, alpha, sigma**2)
    with pytest.raises(ParameterDomainError, match="restarts"):
        hf.fit(panel, n_restarts=2)


def load_oracle():
    """perfbench's scipy multistart optimum of the profiled likelihood."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_panel(seed):
    p = hf.ProcessParams(
        eta=0.1, alpha=0.45, sigma=0.05, init=hf.InitialDistribution.degenerate(100.0)
    )
    return hf.simulate_paths(p, GRID, 50, seed)


@pytest.mark.parametrize("panel, urr", [
    pytest.param(lambda: reference_panel(1), None, id="ref-panel-seed1"),
    pytest.param(lambda: reference_panel(3), None, id="ref-panel-seed3"),
    pytest.param(load_norway, NORWAY_URR, id="norway-urr"),
    pytest.param(load_kazakhstan, KAZAKHSTAN_URR, id="kazakhstan-urr"),
])
def test_fit_lands_within_1e6_nats_of_the_profiled_optimum(panel, urr):
    panel = panel()
    fit = hf.fit(panel, urr=urr)
    shifted = panel.shifted(panel.t_first)
    best = load_oracle().profiled_optimum(hf, SufficientStats.from_panel(shifted), hf.build_box(shifted, urr=urr))
    assert abs(fit.objective_value - best["value"]) <= 1e-6


def test_profile_fit_warns_when_the_search_hits_max_iter(monkeypatch):
    converged = hf.fit(load_norway(), urr=NORWAY_URR)
    assert converged.stop_reason == "converged" and converged.warnings == []
    monkeypatch.setattr("hubbertfit.optimize._NM_MAX_ITER", 20)
    capped = hf.fit(load_norway(), urr=NORWAY_URR)
    assert capped.stop_reason == "max_iter"
    assert capped.warnings == [
        "the profile search stopped at the Nelder-Mead iteration cap without converging"
    ]


@pytest.mark.parametrize("panel, urr", [
    pytest.param(lambda: reference_panel(1), None, id="ref-panel-seed1"),
    pytest.param(lambda: reference_panel(2), None, id="ref-panel-seed2"),
    pytest.param(lambda: reference_panel(3), None, id="ref-panel-seed3"),
    pytest.param(load_norway, NORWAY_URR, id="norway-urr"),
    pytest.param(load_kazakhstan, KAZAKHSTAN_URR, id="kazakhstan-urr"),
])
def test_profile_search_stops_at_the_objective_resolution(monkeypatch, panel, urr):
    # shrinking the simplex from sqrt(eps) down to 1e-10 in each coordinate
    # costs evaluations and moves neither the optimum nor its value
    panel = panel()
    fit = hf.fit(panel, urr=urr)
    monkeypatch.setattr("hubbertfit.optimize._NM_X_TOLERANCE", 1e-10)
    tight = hf.fit(panel, urr=urr)
    assert fit.stop_reason == tight.stop_reason == "converged"
    assert fit.n_evals < tight.n_evals
    assert abs(fit.objective_value - tight.objective_value) <= 1e-9
    moved = np.abs(np.subtract(fit.theta_hat, tight.theta_hat)) / np.array(tight.std_errors)
    assert np.all(moved <= 1e-4)
