import math

import numpy as np
import pytest

import hubbertfit as hf
from hubbertfit.likelihood import INFEASIBLE, SufficientStats, profile_objective
from hubbertfit.errors import OrderingError, ParameterDomainError


def simulated_panel(seed, n_paths=5, sigma0_sq=0.01):
    init = (
        hf.InitialDistribution(math.log(100.0), sigma0_sq)
        if sigma0_sq > 0.0
        else hf.InitialDistribution.degenerate(100.0)
    )
    p = hf.ProcessParams(eta=0.1, alpha=0.45, sigma=0.05, init=init)
    grid = hf.PathGrid(np.arange(0.0, 21.0))
    return hf.simulate_paths(p, grid, n_paths, seed)


def brute_force(panel, mu1, sigma1_sq, eta, alpha, sigma_sq):
    init = hf.InitialDistribution(mu1, sigma1_sq)
    p = hf.ProcessParams(eta=eta, alpha=alpha, sigma=math.sqrt(sigma_sq), init=init)
    total = 0.0
    for t, v in zip(panel.times, panel.values):
        for j in range(1, len(t)):
            total += hf.transition_logpdf(v[j], t[j], v[j - 1], t[j - 1], p)
    if sigma1_sq > 0.0:
        lx = np.log(panel.initial_values())
        total += float(
            np.sum(
                -lx - 0.5 * math.log(2.0 * math.pi * sigma1_sq) - (lx - mu1) ** 2 / (2.0 * sigma1_sq)
            )
        )
    return total


def test_closed_form_equals_brute_force():
    rng = np.random.default_rng(0)
    for seed in range(10):
        panel = simulated_panel(seed)
        mu1, s1 = hf.initial_mle(panel)
        eta = rng.uniform(0.02, 0.25)
        alpha = rng.uniform(0.2, 0.9)
        sigma_sq = rng.uniform(0.02, 0.09) ** 2
        closed = hf.log_likelihood(panel, mu1, s1, eta, alpha, sigma_sq)
        assert closed == pytest.approx(brute_force(panel, mu1, s1, eta, alpha, sigma_sq), abs=1e-9)


def test_degenerate_initial_drops_initial_terms():
    panel = simulated_panel(3, n_paths=1, sigma0_sq=0.0)
    mu1, s1 = hf.initial_mle(panel)
    assert s1 == 0.0
    closed = hf.log_likelihood(panel, mu1, 0.0, 0.1, 0.45, 0.0025)
    assert closed == pytest.approx(brute_force(panel, mu1, 0.0, 0.1, 0.45, 0.0025), abs=1e-9)


def test_objective_is_negative_loglik_plus_constant():
    panel = simulated_panel(4)
    mu1, s1 = hf.initial_mle(panel)
    thetas = [(0.1, 0.45, 0.0025), (0.2, 0.6, 0.004), (0.05, 0.3, 0.0081)]
    consts = [
        hf.objective(panel, *th) + hf.log_likelihood(panel, mu1, s1, *th) for th in thetas
    ]
    assert consts[0] == pytest.approx(consts[1], rel=1e-12)
    assert consts[0] == pytest.approx(consts[2], rel=1e-12)


def test_sufficient_stats_match_panel_interface():
    panel = simulated_panel(5)
    stats = SufficientStats.from_panel(panel)
    assert hf.objective(stats, 0.12, 0.5, 0.003) == pytest.approx(
        hf.objective(panel, 0.12, 0.5, 0.003), rel=1e-14
    )
    mu_a, s_a = hf.initial_mle(panel)
    mu_b, s_b = hf.initial_mle(stats)
    assert (mu_a, s_a) == (mu_b, s_b)


def test_objective_additive_over_paths():
    panel = simulated_panel(6, n_paths=3)
    theta = (0.08, 0.4, 0.0036)
    total = hf.objective(panel, *theta)
    parts = sum(
        hf.objective(hf.PanelData(times=[t], values=[v]), *theta)
        for t, v in zip(panel.times, panel.values)
    )
    assert total == pytest.approx(parts, rel=1e-12)


def test_path_permutation_invariance():
    panel = simulated_panel(7, n_paths=4)
    flipped = hf.PanelData(times=panel.times[::-1], values=panel.values[::-1])
    assert hf.objective(flipped, 0.1, 0.45, 0.0025) == pytest.approx(
        hf.objective(panel, 0.1, 0.45, 0.0025), rel=1e-14
    )


def test_time_shift_reparametrization_invariance():
    panel = simulated_panel(8)
    k = 13.0
    shifted = hf.PanelData(times=[t + k for t in panel.times], values=panel.values)
    mu1, s1 = hf.initial_mle(panel)
    eta, alpha, sigma_sq = 0.1, 0.45, 0.0025
    # on the clock t + k the equivalent eta is eta * alpha^k
    eta_shift = hf.shift_parameters(eta, alpha, -k)
    a = hf.log_likelihood(panel, mu1, s1, eta, alpha, sigma_sq)
    b = hf.log_likelihood(shifted.shifted(k), mu1, s1, eta, alpha, sigma_sq)
    c = hf.log_likelihood(shifted, mu1, s1, eta_shift, alpha, sigma_sq)
    assert b == pytest.approx(a, rel=1e-12)
    assert c == pytest.approx(a, rel=1e-9)


def test_eta_alpha_sums_against_direct_loop():
    panel = simulated_panel(9, n_paths=2)
    eta, alpha = 0.15, 0.55
    y1 = y2 = r = 0.0
    for t, v in zip(panel.times, panel.values):
        for j in range(1, len(t)):
            tij = math.log(eta + alpha ** t[j - 1]) - math.log(eta + alpha ** t[j])
            dt = t[j] - t[j - 1]
            u = math.log(v[j] / v[j - 1])
            y1 += tij**2 / dt
            y2 += u * tij / dt
            r += tij
    got = hf.eta_alpha_sums(panel, eta, alpha)
    assert got[0] == pytest.approx(y1, rel=1e-12)
    assert got[1] == pytest.approx(y2, rel=1e-12)
    assert got[2] == pytest.approx(r, rel=1e-12)


def test_sigma_sq_first_order_condition():
    panel = simulated_panel(10)
    eta, alpha = 0.1, 0.45
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda v: hf.objective(panel, eta, alpha, v),
        bounds=(1e-6, 0.01),
        method="bounded",
        options={"xatol": 1e-14},
    )
    h = 1e-3 * res.x
    left = hf.objective(panel, eta, alpha, res.x - h)
    right = hf.objective(panel, eta, alpha, res.x + h)
    assert left > res.fun and right > res.fun


@pytest.mark.parametrize("eta, alpha, sigma_range, clipped", [
    (0.1, 0.45, (0.0, 0.1), None),  # v* inside the box
    (0.02, 0.9, (0.0, 0.3), None),  # far from the data's (eta, alpha)
    (0.1, 0.45, (0.0, 0.03), "upper"),  # v* above the box
    (0.1, 0.45, (0.08, 0.1), "lower"),  # v* below the box
])
def test_profile_objective_is_the_minimum_over_sigma(eta, alpha, sigma_range, clipped):
    from scipy.optimize import minimize_scalar

    stats = SufficientStats.from_panel(simulated_panel(10))
    value, sigma = profile_objective(stats, eta, alpha, sigma_range)
    assert value == hf.objective(stats, eta, alpha, sigma * sigma)
    lo, hi = sigma_range
    eps = 1e-12 * (hi - lo)  # the margin of SolutionBox.clip_interior
    assert lo + eps <= sigma <= hi - eps
    if clipped is not None:
        assert sigma == (hi - eps if clipped == "upper" else lo + eps)
    numeric = minimize_scalar(
        lambda v: hf.objective(stats, eta, alpha, v),
        bounds=((lo + eps) ** 2, (hi - eps) ** 2),
        method="bounded",
        options={"xatol": 1e-14 * hi**2},
    )
    assert numeric.fun >= value - 1e-9 * max(1.0, abs(value))


def test_initial_mle_single_path():
    panel = simulated_panel(11, n_paths=1, sigma0_sq=0.0)
    mu1, s1 = hf.initial_mle(panel)
    assert mu1 == pytest.approx(math.log(panel.values[0][0]), rel=1e-14)
    assert s1 == 0.0


def test_initial_mle_multi_path():
    panel = simulated_panel(12, n_paths=6)
    mu1, s1 = hf.initial_mle(panel)
    lx = np.log(panel.initial_values())
    assert mu1 == pytest.approx(float(lx.mean()), rel=1e-14)
    assert s1 == pytest.approx(float(((lx - lx.mean()) ** 2).mean()), rel=1e-12)


def test_ragged_panel_supported():
    panel = hf.PanelData(
        times=[np.array([0.0, 1.0, 2.0, 4.0]), np.array([0.0, 0.5, 3.0])],
        values=[np.array([10.0, 11.0, 9.0, 8.0]), np.array([10.5, 10.0, 7.5])],
    )
    mu1, s1 = hf.initial_mle(panel)
    closed = hf.log_likelihood(panel, mu1, s1, 0.1, 0.5, 0.0025)
    assert closed == pytest.approx(brute_force(panel, mu1, s1, 0.1, 0.5, 0.0025), abs=1e-9)


def test_panel_validation():
    with pytest.raises(OrderingError):
        hf.PanelData(times=[np.array([0.0, 0.0])], values=[np.array([1.0, 1.0])])
    with pytest.raises(ParameterDomainError):
        hf.PanelData(times=[np.array([0.0, 1.0])], values=[np.array([1.0, -1.0])])
    with pytest.raises(OrderingError):
        hf.PanelData(
            times=[np.array([0.0, 1.0]), np.array([1.0, 2.0])],
            values=[np.array([1.0, 1.0]), np.array([1.0, 1.0])],
        )
    with pytest.raises(ParameterDomainError):
        hf.PanelData(times=[], values=[])


def test_likelihood_validation():
    panel = simulated_panel(13)
    with pytest.raises(ParameterDomainError):
        hf.log_likelihood(panel, 0.0, 0.0, 0.1, 0.45, 0.0)
    with pytest.raises(ParameterDomainError):
        hf.log_likelihood(panel, 0.0, -1.0, 0.1, 0.45, 0.01)
    with pytest.raises(ParameterDomainError):
        hf.objective(panel, -0.1, 0.45, 0.01)
    with pytest.raises(ParameterDomainError):
        hf.objective(panel, 0.1, 1.0, 0.01)
    assert math.isinf(INFEASIBLE)
