import itertools
import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

import hubbertfit as hf
from hubbertfit import likelihood
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
    lo, hi = sigma_range
    eps = 1e-12 * (hi - lo)  # the margin of SolutionBox.clip_interior
    value, sigma = profile_objective(stats, eta, alpha, (lo + eps, hi - eps))
    assert value == hf.objective(stats, eta, alpha, sigma * sigma)
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


def per_transition_stats(data):
    """SufficientStats built transition by transition, pairs by np.unique over (s, t) rows."""
    s_all = np.concatenate([t[:-1] for t in data.times])
    t_all = np.concatenate([t[1:] for t in data.times])
    u_all = np.concatenate([np.diff(np.log(v)) for v in data.values])
    dt_all = t_all - s_all
    pairs = np.column_stack([s_all, t_all])
    uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
    n_pairs = uniq.shape[0]
    u_times, flat_idx = np.unique(uniq.ravel(), return_inverse=True)
    idx = flat_idx.reshape(n_pairs, 2)
    return SufficientStats(
        z1=float(np.sum(u_all**2 / dt_all)),
        z2=float(sum(t[-1] - t[0] for t in data.times)),
        z3=float(sum(math.log(v[-1] / v[0]) for v in data.values)),
        n_obs=data.n_obs,
        d=data.d,
        u_times=u_times,
        pair_lo=idx[:, 0],
        pair_hi=idx[:, 1],
        pair_inv_dt=1.0 / (uniq[:, 1] - uniq[:, 0]),
        pair_count=np.bincount(inverse, minlength=n_pairs).astype(float),
        pair_usum=np.bincount(inverse, weights=u_all, minlength=n_pairs),
        log_x_first=np.log(data.initial_values()),
        log_lik_offset=(
            0.5 * s_all.size * math.log(2.0 * math.pi)
            + float(sum(np.sum(np.log(v[1:])) for v in data.values))
            + 0.5 * float(np.sum(np.log(dt_all)))
        ),
    )


def irregular_panel(seed):
    """d = 1..7 paths from a negative or fractional first time; seeds 0 mod 3
    step on a 0.5 grid, so transition pairs repeat within and across paths."""
    rng = np.random.default_rng(seed)
    d = 1 if seed % 4 == 0 else int(rng.integers(2, 8))
    t0 = float(rng.uniform(-5.0, 5.0))
    times, values = [], []
    for _ in range(d):
        n = int(rng.integers(2, 300 if seed % 5 == 0 else 15))
        if seed % 3 == 0:
            steps = rng.choice([0.5, 1.0, 1.5], size=n - 1)
        else:
            steps = rng.uniform(0.01, 2.0, size=n - 1)
        times.append(t0 + np.concatenate([[0.0], np.cumsum(steps)]))
        values.append(np.exp(rng.normal(3.0, 1.0, size=n)))
    return hf.PanelData(times=times, values=values)


def assert_same_bytes(got, want):
    for f in fields(SufficientStats):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert (type(a), repr(a)) == (type(b), repr(b)), f.name


@pytest.mark.parametrize("seed", range(24))
def test_from_panel_equals_per_transition_construction(seed):
    panel = irregular_panel(seed)
    assert_same_bytes(SufficientStats.from_panel(panel), per_transition_stats(panel))
    shifted = panel.shifted(panel.t_first)
    assert_same_bytes(SufficientStats.from_panel(shifted), per_transition_stats(shifted))


def test_from_panel_merges_repeated_pairs():
    panel = hf.PanelData(
        times=[np.array([-1.5, -0.5, 0.5, 1.0]), np.array([-1.5, -0.5, 1.0]), np.array([-1.5, -0.5])],
        values=[np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0, 1.0, 3.0]), np.array([5.0, 6.0])],
    )
    stats = SufficientStats.from_panel(panel)
    np.testing.assert_array_equal(stats.u_times, [-1.5, -0.5, 0.5, 1.0])
    np.testing.assert_array_equal(stats.pair_lo, [0, 1, 1, 2])
    np.testing.assert_array_equal(stats.pair_hi, [1, 2, 3, 3])
    np.testing.assert_array_equal(stats.pair_count, [3.0, 1.0, 1.0, 1.0])
    assert_same_bytes(stats, per_transition_stats(panel))


@pytest.mark.parametrize("build", [SufficientStats.from_panel, per_transition_stats])
def test_pair_weights_are_derived_once(build):
    stats = build(irregular_panel(3))
    count, inv_dt, usum = stats.pair_count, stats.pair_inv_dt, stats.pair_usum
    want = np.stack([count * inv_dt, usum * inv_dt, count])
    assert stats.pair_weights.shape == (3, count.size)
    assert stats.pair_weights.tobytes() == want.tobytes()
    assert "pair_weights" not in {f.name for f in fields(SufficientStats)}
    with pytest.raises(FrozenInstanceError):
        stats.pair_weights = want


def test_pair_sums_memo_never_returns_stale_sums():
    # two panels, one (eta, alpha): every call, in any interleaving, must
    # equal the same call on freshly built stats, which have no memo
    panels = [simulated_panel(21), simulated_panel(22)]
    stats = [SufficientStats.from_panel(p) for p in panels]
    sigma_range = (1e-3, 0.5)
    calls = [
        lambda s, eta, alpha: hf.objective(s, eta, alpha, 0.0025),
        lambda s, eta, alpha: hf.objective(s, eta, alpha, 0.004),
        lambda s, eta, alpha: profile_objective(s, eta, alpha, sigma_range),
        lambda s, eta, alpha: hf.eta_alpha_sums(s, eta, alpha),
        lambda s, eta, alpha: hf.log_likelihood(s, 4.6, 0.0, eta, alpha, 0.0025),
    ]
    points = [(0.1, 0.45), (0.1, 0.45), (0.2, 0.45), (0.1, 0.5), (0.1, 0.45)]
    order = [0, 1, 0, 0, 1, 1, 1]  # alternating and repeated panels
    assert hf.eta_alpha_sums(stats[0], 0.1, 0.45) != hf.eta_alpha_sums(stats[1], 0.1, 0.45)
    for step, ((eta, alpha), call) in enumerate(list(itertools.product(points, calls)) * 2):
        i = order[step % len(order)]
        fresh = SufficientStats.from_panel(panels[i])
        assert call(stats[i], eta, alpha) == call(fresh, eta, alpha)


def test_profile_objective_runs_the_kernel_once(monkeypatch):
    stats = SufficientStats.from_panel(simulated_panel(23))
    reductions = []

    def counted(a, *args, **kwargs):
        reductions.append(a.shape)
        return np.add.reduce(a, *args, **kwargs)

    monkeypatch.setattr(likelihood, "_sum", counted)
    value, sigma = profile_objective(stats, 0.11, 0.46, (1e-3, 0.5))
    # one pass: Y1, Y2 and R in one row-wise reduction of the pair weights
    assert reductions == [stats.pair_weights.shape]
    assert value == hf.objective(SufficientStats.from_panel(simulated_panel(23)), 0.11, 0.46, sigma * sigma)


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


@pytest.mark.parametrize(
    "times, values",
    [
        ([0.0, 1.0, math.inf], [1.0, 2.0, 3.0]),
        ([-math.inf, 1.0, 2.0], [1.0, 2.0, 3.0]),
        ([0.0, 1.0, 2.0], [1.0, math.inf, 3.0]),
        ([0.0, 1.0, 2.0], [1.0, 2.0, math.nan]),
    ],
)
def test_panel_rejects_non_finite_data(times, values):
    with pytest.raises(ParameterDomainError, match="path 1"):
        hf.PanelData(
            times=[np.array([0.0, 1.0]), np.array(times)],
            values=[np.array([1.0, 1.0]), np.array(values)],
        )


def path_by_path_check(times, values):
    """The error a scan of the paths in order raises first, or None."""
    for i, (t, v) in enumerate(zip(times, values)):
        t, v = np.asarray(t, dtype=float), np.asarray(v, dtype=float)
        if t.shape != v.shape or t.ndim != 1 or t.size < 2:
            return ParameterDomainError, f"path {i}: times and values must be 1-d, equal length >= 2"
        if not np.all(np.diff(t) > 0.0):
            return OrderingError, f"path {i}: times must be strictly increasing"
        if not np.all(v > 0.0):
            return ParameterDomainError, f"path {i}: values must be positive"
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            return ParameterDomainError, f"path {i}: times and values must be finite"
    if any(t[0] != times[0][0] for t in times):
        return OrderingError, "all paths must share the same first time"
    return None


GOOD = ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
BAD_PATHS = [
    ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0]),  # not increasing
    ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0]),  # repeated time
    ([0.0, 1.0, 2.0], [1.0, 0.0, 3.0]),  # zero value
    ([0.0, 2.0, 1.0], [1.0, -2.0, 3.0]),  # both: the order is reported
    ([0.0, 1.0, math.inf], [1.0, -2.0, 3.0]),  # both: the value is reported
    ([0.0, 1.0, math.nan], [1.0, 2.0, 3.0]),
    ([0.0, 1.0, 2.0], [1.0, 2.0, math.inf]),
    ([0.0], [1.0]),  # too short
    ([0.0, 1.0], [1.0, 2.0, 3.0]),  # lengths differ
    ([[0.0, 1.0]], [[1.0, 2.0]]),  # 2-d
    ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),  # another first time
]


@pytest.mark.parametrize("first", BAD_PATHS)
def test_panel_validation_reports_the_first_bad_path(first):
    for second in BAD_PATHS:
        times, values = (list(x) for x in zip(GOOD, GOOD, first, GOOD, second))
        kind, message = path_by_path_check(times, values)
        with pytest.raises(kind) as info:
            hf.PanelData(times=times, values=values)
        assert (type(info.value), str(info.value)) == (kind, message)


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
