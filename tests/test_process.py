import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import hubbertfit as hf
from hubbertfit import process
from hubbertfit.errors import OrderingError, ParameterDomainError

PP = hf.ProcessParams(
    eta=0.1, alpha=0.45, sigma=0.05, init=hf.InitialDistribution.degenerate(80.0)
)


def test_transition_logpdf_matches_lognormal_oracle():
    # frozen scipy.stats.lognorm value at (x=30, t=3.5 | y=80, s=2)
    value = hf.transition_logpdf(30.0, 3.5, 80.0, 2.0, PP)
    assert value == pytest.approx(-146.00427681956495, rel=1e-12)


def test_transition_logpdf_matches_scipy_generally():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rng.uniform(0.0, 10.0)
        t = s + rng.uniform(0.1, 5.0)
        y = rng.uniform(10.0, 200.0)
        x = rng.uniform(10.0, 200.0)
        mu = (
            math.log(y)
            + 2.0 * (math.log(PP.eta + PP.alpha**s) - math.log(PP.eta + PP.alpha**t))
            + (math.log(PP.alpha) - 0.5 * PP.sigma**2) * (t - s)
        )
        ref = stats.lognorm(s=PP.sigma * math.sqrt(t - s), scale=math.exp(mu)).logpdf(x)
        assert hf.transition_logpdf(x, t, y, s, PP) == pytest.approx(ref, rel=1e-10)


def test_transition_density_integrates_to_one():
    total, _ = quad(
        lambda x: math.exp(hf.transition_logpdf(x, 3.0, 80.0, 2.0, PP)), 1e-6, 1e4,
        limit=300,
    )
    assert total == pytest.approx(1.0, abs=1e-7)


def test_conditional_mean_matches_quadrature():
    m, _ = quad(
        lambda x: x * math.exp(hf.transition_logpdf(x, 3.5, 80.0, 2.0, PP)), 1e-6, 1e4,
        limit=300,
    )
    closed = hf.conditional_mean(3.5, 80.0, 2.0, PP.eta, PP.alpha)
    assert closed == pytest.approx(85.11669312343449, rel=1e-12)
    assert closed == pytest.approx(m, rel=1e-8)


def test_mean_is_hubbert_curve_through_initial_mean():
    t = np.linspace(0.0, 30.0, 40)
    curve = hf.CurveParams(eta=PP.eta, alpha=PP.alpha, x0=PP.init.mean, t0=0.0)
    np.testing.assert_allclose(hf.mean(t, PP), hf.hubbert_value(t, curve), rtol=1e-12)


def test_mean_does_not_depend_on_sigma():
    p2 = hf.ProcessParams(eta=PP.eta, alpha=PP.alpha, sigma=0.09, init=PP.init)
    assert hf.mean(12.0, p2) == pytest.approx(hf.mean(12.0, PP), rel=1e-14)


def test_conditional_mean_tower_property():
    # E[X(t)|X(s)] composed through an intermediate time r is consistent
    m_direct = hf.conditional_mean(9.0, 80.0, 2.0, PP.eta, PP.alpha)
    m_mid = hf.conditional_mean(5.0, 80.0, 2.0, PP.eta, PP.alpha)
    m_two = hf.conditional_mean(9.0, m_mid, 5.0, PP.eta, PP.alpha)
    assert m_two == pytest.approx(m_direct, rel=1e-12)


def test_finite_dim_params_structure():
    times = np.array([0.0, 1.0, 2.5, 7.0])
    mu, cov = hf.finite_dim_params(times, PP)
    assert mu.shape == (4,) and cov.shape == (4, 4)
    np.testing.assert_allclose(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) >= -1e-12)
    # degenerate start: zero variance at t0
    assert cov[0, 0] == pytest.approx(0.0, abs=0.0)
    assert cov[2, 3] == pytest.approx(PP.sigma**2 * 2.5, rel=1e-12)


def test_finite_dim_mean_consistent_with_transition():
    times = np.array([0.0, 2.0, 3.5])
    mu, _ = hf.finite_dim_params(times, PP)
    # log-mean increments equal the lognormal transition log-means
    step = (
        2.0 * (math.log(PP.eta + PP.alpha**2.0) - math.log(PP.eta + PP.alpha**3.5))
        + (math.log(PP.alpha) - 0.5 * PP.sigma**2) * 1.5
    )
    assert mu[2] - mu[1] == pytest.approx(step, rel=1e-12)


def test_simulate_deterministic_mode():
    grid = hf.PathGrid(np.linspace(0.0, 20.0, 21))
    p0 = hf.ProcessParams(eta=0.1, alpha=0.45, sigma=0.0, init=PP.init)
    panel = hf.simulate_paths(p0, grid, 3, seed=11)
    curve = hf.CurveParams(eta=0.1, alpha=0.45, x0=PP.init.mean, t0=0.0)
    for v in panel.values:
        np.testing.assert_allclose(v, hf.hubbert_value(grid.times, curve), rtol=1e-12)


@pytest.mark.parametrize("init,digest", [
    (hf.InitialDistribution.degenerate(80.0), "e69453f409d4e7241ac7c7b0929f62155fb3b7a3079d63a62cc060789874729a"),
    (hf.InitialDistribution(4.4, 0.09), "03349ce65e39c5b07cc32ba5351f0bf7388ee6b26ade1f4e8fad7c8a4a81a0ab"),
])
def test_simulate_sigma_zero_bytes_are_pinned(init, digest):
    # recorded when sigma = 0 had its own branch that drew no increments;
    # the general expression adds +-0 noise there and keeps every byte
    grid = hf.PathGrid(np.array([0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0, 21.0]))
    p0 = hf.ProcessParams(eta=0.1, alpha=0.45, sigma=0.0, init=init)
    panel = hf.simulate_paths(p0, grid, 4, seed=11)
    assert hashlib.sha256(np.stack(panel.values).tobytes()).hexdigest() == digest


def test_simulate_reproducible():
    grid = hf.PathGrid(np.linspace(0.0, 10.0, 51))
    a = hf.simulate_paths(PP, grid, 4, seed=99)
    b = hf.simulate_paths(PP, grid, 4, seed=99)
    c = hf.simulate_paths(PP, grid, 4, seed=100)
    for va, vb in zip(a.values, b.values):
        np.testing.assert_array_equal(va, vb)
    assert not np.array_equal(a.values[0], c.values[0])


def test_simulate_monte_carlo_mean():
    grid = hf.PathGrid(np.array([0.0, 2.0, 5.0, 10.0]))
    panel = hf.simulate_paths(PP, grid, 40000, seed=7)
    values = np.stack(panel.values)
    mc = values.mean(axis=0)
    expected = hf.mean(grid.times, PP)
    se = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
    assert np.all(np.abs(mc - expected) < 5.0 * se + 1e-9)


def test_simulate_log_increments_are_gaussian():
    grid = hf.PathGrid(np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
    panel = hf.simulate_paths(PP, grid, 2000, seed=13)
    values = np.stack(panel.values)
    z = []
    for j in range(1, 6):
        s, t = grid.times[j - 1], grid.times[j]
        mu = (
            2.0 * (math.log(PP.eta + PP.alpha**s) - math.log(PP.eta + PP.alpha**t))
            + (math.log(PP.alpha) - 0.5 * PP.sigma**2) * (t - s)
        )
        z.append((np.log(values[:, j] / values[:, j - 1]) - mu) / (PP.sigma * math.sqrt(t - s)))
    z = np.concatenate(z)
    assert stats.kstest(z, "norm").pvalue > 0.01


def test_simulate_lognormal_start():
    init = hf.InitialDistribution(math.log(80.0), 0.04)
    p2 = hf.ProcessParams(eta=0.1, alpha=0.45, sigma=0.05, init=init)
    grid = hf.PathGrid(np.array([0.0, 1.0]))
    panel = hf.simulate_paths(p2, grid, 30000, seed=21)
    x0 = panel.initial_values()
    assert np.log(x0).mean() == pytest.approx(math.log(80.0), abs=3.0 * 0.2 / math.sqrt(30000))
    assert np.log(x0).std() == pytest.approx(0.2, rel=0.05)


def test_simulate_rejects_grid_not_starting_at_t0():
    grid = hf.PathGrid(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(OrderingError):
        hf.simulate_paths(PP, grid, 1, seed=0)


def test_process_with_shifted_t0():
    init = hf.InitialDistribution.degenerate(50.0)
    p2 = hf.ProcessParams(eta=0.1, alpha=0.45, sigma=0.05, init=init, t0=3.0)
    grid = hf.PathGrid(np.array([3.0, 4.0, 5.0]))
    panel = hf.simulate_paths(p2, grid, 2, seed=1)
    assert panel.t_first == 3.0
    assert hf.mean(3.0, p2) == pytest.approx(50.0, rel=1e-12)


def test_grid_validation():
    with pytest.raises(OrderingError):
        hf.PathGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(OrderingError):
        hf.PathGrid(np.array([0.0]))


@pytest.mark.parametrize("times", [[0.0, 1.0, math.inf], [-math.inf, 0.0, 1.0]])
def test_non_finite_grid_times_are_refused(times):
    # [0, 1, inf] was accepted, and simulate_paths then failed on path 0's values
    with pytest.raises(ParameterDomainError, match="grid times must be finite"):
        hf.PathGrid(np.array(times))


def test_finite_dim_params_refuses_non_finite_times():
    # once returned a -inf mean and an inf variance
    with pytest.raises(ParameterDomainError, match="^times must be finite"):
        hf.finite_dim_params([0.0, 1.0, math.inf], PP)


def test_overflowing_initial_mean_is_inf_and_refused_downstream():
    # math.exp raised a bare OverflowError here
    init = hf.InitialDistribution(700.0, 40.0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert init.mean == math.inf
    p = hf.ProcessParams(eta=0.1, alpha=0.45, sigma=0.05, init=init)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ParameterDomainError, match="^x0 must be positive and finite, got inf$"):
            hf.mean(1.0, p)


def test_param_validation():
    with pytest.raises(ParameterDomainError):
        hf.ProcessParams(eta=0.1, alpha=0.45, sigma=-0.1, init=PP.init)
    for sigma in (math.nan, math.inf):
        with pytest.raises(ParameterDomainError, match="sigma must be finite"):
            hf.ProcessParams(eta=0.1, alpha=0.45, sigma=sigma, init=PP.init)
    with pytest.raises(ParameterDomainError):
        hf.InitialDistribution(mu0=0.0, sigma0_sq=-1.0)
    with pytest.raises(ParameterDomainError):
        hf.transition_logpdf(1.0, 2.0, 1.0, 1.0, hf.ProcessParams(0.1, 0.45, 0.0, PP.init))
    with pytest.raises(OrderingError):
        hf.transition_logpdf(1.0, 1.0, 1.0, 2.0, PP)
    grid = hf.PathGrid(np.array([0.0, 1.0]))
    for bad in (0, 2.5, True):
        with pytest.raises(ParameterDomainError, match="n_paths"):
            hf.simulate_paths(PP, grid, bad, seed=0)


@pytest.mark.parametrize("build", [
    lambda: hf.InitialDistribution(4.0, math.nan),
    lambda: hf.InitialDistribution(4.0, math.inf),
    lambda: hf.InitialDistribution(math.nan),
    lambda: hf.InitialDistribution(-math.inf),
    lambda: hf.InitialDistribution.degenerate(math.inf),
    lambda: hf.InitialDistribution.degenerate(math.nan),
    lambda: hf.ProcessParams(eta=0.1, alpha=0.45, sigma=0.05, init=PP.init, t0=math.nan),
    lambda: hf.ProcessParams(eta=0.1, alpha=0.45, sigma=0.05, init=PP.init, t0=math.inf),
])
def test_non_finite_initial_law_and_t0_are_refused(build):
    # each was accepted once: a NaN variance simulated as a degenerate
    # start, and a NaN t0 gave a NaN mean
    with pytest.raises(ParameterDomainError):
        build()


def test_process_does_not_import_the_optimizer():
    tree = ast.parse(Path(process.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "likelihood" in imported and "optimize" not in imported


def test_hubbert_value_is_conditional_mean_bit_for_bit():
    # one curve formula: the curve through (s, y) is E[X(t) | X(s) = y]
    rng = np.random.default_rng(2)
    for _ in range(200):
        eta, alpha = rng.uniform(0.001, 2.0), rng.uniform(0.05, 0.99)
        y, s = rng.uniform(1.0, 5000.0), rng.uniform(-20.0, 40.0)
        t = s + rng.uniform(0.0, 60.0, 10)
        curve = hf.hubbert_value(t, hf.CurveParams(eta, alpha, y, s))
        assert np.array_equal(curve, hf.conditional_mean(t, y, s, eta, alpha))
        assert hf.hubbert_value(t[0], hf.CurveParams(eta, alpha, y, s)) == hf.conditional_mean(
            t[0], y, s, eta, alpha
        )
