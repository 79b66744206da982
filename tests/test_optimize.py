import math

import numpy as np
import pytest
from scipy import stats

import hubbertfit as hf
from hubbertfit.errors import InitializationError, ParameterDomainError
from hubbertfit import optimize
from hubbertfit.optimize import FALLBACK_T0, Candidate, _half_width, _propose, nelder_mead

BOX = hf.SolutionBox()


def sphere(center):
    center = np.asarray(center, dtype=float)

    def f(theta):
        return float(np.sum((np.asarray(theta) - center) ** 2))

    return f

CENTER = np.array([0.12, 0.5, 0.04])


def test_metropolis_always_accepts_improvement():
    rng = np.random.default_rng(0)
    cur = Candidate(np.zeros(3), 5.0)
    for value in (4.9, 1.0, -3.0, 5.0):
        prop = Candidate(np.ones(3), value)
        assert hf.metropolis_step(cur, prop, 1e-9, rng) is prop


def test_metropolis_frequency_at_half_probability():
    # delta = T ln 2 gives acceptance probability exactly 1/2
    rng = np.random.default_rng(123)
    temperature = 0.7
    cur = Candidate(np.zeros(3), 0.0)
    prop = Candidate(np.ones(3), temperature * math.log(2.0))
    n = 100_000
    accepted = sum(hf.metropolis_step(cur, prop, temperature, rng) is prop for _ in range(n))
    assert accepted / n == pytest.approx(0.5, abs=0.01)


def test_metropolis_frequency_follows_boltzmann():
    # chi-square at 1% over 1e5 synthetic steps spread across several deltas
    rng = np.random.default_rng(7)
    temperature = 1.3
    deltas = np.array([0.2, 0.7, 1.5, 3.0]) * temperature
    per = 25_000
    observed = []
    expected = []
    for delta in deltas:
        cur = Candidate(np.zeros(3), 0.0)
        prop = Candidate(np.ones(3), float(delta))
        acc = sum(hf.metropolis_step(cur, prop, temperature, rng) is prop for _ in range(per))
        p = math.exp(-delta / temperature)
        observed += [acc, per - acc]
        expected += [per * p, per * (1.0 - p)]
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_metropolis_never_accepts_infeasible():
    rng = np.random.default_rng(1)
    cur = Candidate(np.zeros(3), 0.0)
    prop = Candidate(np.ones(3), math.inf)
    assert all(hf.metropolis_step(cur, prop, 1e9, rng) is cur for _ in range(100))


def test_initial_temperature_scales_linearly():
    # T0 = -mean(positive increases)/ln(p0); doubling f doubles it
    f = sphere(CENTER)
    t_a = hf.initial_temperature(f, BOX, 100, 0.9, np.random.default_rng(5))
    t_b = hf.initial_temperature(
        lambda th: 2.0 * f(th), BOX, 100, 0.9, np.random.default_rng(5)
    )
    assert t_a > 0.0
    assert t_b == pytest.approx(2.0 * t_a, rel=1e-12)


def test_initial_temperature_fallback_on_constant_objective():
    t0 = hf.initial_temperature(lambda th: 3.0, BOX, 50, 0.9, np.random.default_rng(0))
    assert t0 == FALLBACK_T0


def test_initial_temperature_all_infeasible():
    with pytest.raises(InitializationError):
        hf.initial_temperature(lambda th: math.inf, BOX, 20, 0.9, np.random.default_rng(0))


def test_propose_matches_numpy_reference_bit_for_bit():
    # _propose works on Python floats; it must equal this numpy reference
    # bit for bit, draws and stream position included, also where it clips.
    box = hf.SolutionBox(eta_range=(0.01, 0.02), alpha_range=(0.3, 0.31), sigma_range=(0.0, 1e-3))
    rng_ref, rng = np.random.default_rng(3), np.random.default_rng(3)
    interior = [b.tolist() for b in box.interior]
    for scale in (1.0, 0.37, 1e-9):
        half = _half_width(box, scale)
        ref = cur = np.array([0.015, 0.305, 5e-4])
        for _ in range(2000):
            ref = box.clip_interior(ref + rng_ref.uniform(-1.0, 1.0, size=3) * np.array(half))
            cur = _propose(cur, interior, half, rng)
            assert ref.tobytes() == cur.tobytes()
    assert rng_ref.random() == rng.random()


def test_sa_converges_on_separable_quadratic():
    # scaled so the default temperature range covers many cooling levels
    f = sphere(CENTER)
    for seed in range(10):
        res = hf.simulated_annealing(lambda th: 1e4 * f(th), BOX, seed=seed)
        assert np.all(np.abs(res.best.theta - CENTER) < 0.05)


def test_vns_sa_refines_to_high_accuracy():
    f = sphere(CENTER)
    for seed in range(10):
        res = hf.vns_sa(lambda th: 1e4 * f(th), BOX, seed=seed)
        assert np.all(np.abs(res.best.theta - CENTER) < 0.01)


def test_sa_best_is_non_increasing():
    res = hf.simulated_annealing(sphere(CENTER), BOX, seed=3)
    bests = [level["best"] for level in res.trace]
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
    assert res.best.value <= bests[-1] + 1e-15


def test_sa_deterministic_for_fixed_seed():
    a = hf.simulated_annealing(sphere(CENTER), BOX, seed=42)
    b = hf.simulated_annealing(sphere(CENTER), BOX, seed=42)
    np.testing.assert_array_equal(a.best.theta, b.best.theta)
    assert a.best.value == b.best.value
    assert a.n_evals == b.n_evals


def test_sa_cooling_is_geometric():
    res = hf.simulated_annealing(sphere(CENTER), BOX, seed=0)
    temps = [level["temperature"] for level in res.trace]
    assert temps[0] == pytest.approx(res.t_initial, rel=1e-12)
    for t1, t2 in zip(temps, temps[1:]):
        assert t2 == pytest.approx(0.95 * t1, rel=1e-12)


def test_sa_stall_rule():
    # constant objective goes flat immediately: one stall window, then stop
    config = hf.SAConfig(stall_window=50)
    res = hf.simulated_annealing(lambda th: 1.0, BOX, config=config, seed=0)
    assert res.stop_reason == "stall"
    assert len(res.trace) == 1


def test_sa_temperature_floor():
    config = hf.SAConfig(stall_window=10**9)
    res = hf.simulated_annealing(sphere(CENTER), BOX, config=config, seed=0)
    assert res.stop_reason == "temperature"
    assert res.trace[-1]["temperature"] <= 0.1 / 0.95 + 1e-12


def test_sa_iterates_stay_in_box():
    traced = []

    def f(theta):
        traced.append(np.array(theta))
        return sphere(CENTER)(theta)

    hf.simulated_annealing(f, BOX, seed=8)
    arr = np.stack(traced)
    assert np.all(arr > BOX.lower) and np.all(arr < BOX.upper)


def test_sa_start_override():
    config = hf.SAConfig(chain_length=1, t_final=1e6)  # effectively no moves
    res = hf.simulated_annealing(
        sphere(CENTER), BOX, config=config, seed=0, start=CENTER
    )
    assert np.all(np.abs(res.best.theta - CENTER) < 0.03)


def test_vns_neighborhoods_nested_and_centered():
    theta0 = np.array([0.1, 0.45, 0.05])
    config = hf.VNSConfig(k_max=5)
    boxes = [optimize.vns_neighborhood(theta0, k, config, BOX) for k in range(1, 6)]
    for small, big in zip(boxes, boxes[1:]):
        assert np.all(small.lower >= big.lower) and np.all(small.upper <= big.upper)
    for box in boxes:
        assert box.contains(theta0)
    np.testing.assert_allclose(boxes[-1].lower, BOX.lower, atol=1e-15)
    np.testing.assert_allclose(boxes[-1].upper, BOX.upper, atol=1e-15)


def test_vns_neighborhood_validation():
    config = hf.VNSConfig(k_max=5)
    with pytest.raises(ParameterDomainError):
        optimize.vns_neighborhood(np.array([0.1, 0.45, 0.05]), 6, config, BOX)
    with pytest.raises(ParameterDomainError):
        optimize.vns_neighborhood(np.array([0.1, 1.45, 0.05]), 1, config, BOX)


def test_vns_never_worse_than_phase1():
    for seed in range(20):
        res = hf.vns_sa(sphere(CENTER), BOX, seed=seed)
        assert res.best.value <= res.phase1.best.value


def test_vns_deterministic():
    a = hf.vns_sa(sphere(CENTER), BOX, seed=17)
    b = hf.vns_sa(sphere(CENTER), BOX, seed=17)
    np.testing.assert_array_equal(a.best.theta, b.best.theta)
    assert a.n_evals == b.n_evals


def test_multistart_picks_best():
    single = hf.multistart(sphere(CENTER), BOX, seed=4, n_restarts=1)
    multi = hf.multistart(sphere(CENTER), BOX, seed=4, n_restarts=3)
    assert multi.best.value <= single.best.value


def test_multistart_algorithm_choice():
    res = hf.multistart(sphere(CENTER), BOX, seed=0, algorithm="sa")
    assert isinstance(res, hf.optimize.SAResult) if hasattr(hf, "optimize") else True
    with pytest.raises(ParameterDomainError):
        hf.multistart(sphere(CENTER), BOX, seed=0, algorithm="nope")
    with pytest.raises(ParameterDomainError):
        hf.multistart(sphere(CENTER), BOX, seed=0, n_restarts=0)


def test_config_validation():
    with pytest.raises(ParameterDomainError):
        hf.SAConfig(p0=1.0)
    with pytest.raises(ParameterDomainError):
        hf.SAConfig(gamma=0.0)
    with pytest.raises(ParameterDomainError):
        hf.SAConfig(t_final=0.0)
    with pytest.raises(ParameterDomainError):
        hf.VNSConfig(k_max=0)


def counted(f):
    """f and the list of points it was called at."""
    points = []

    def g(x):
        points.append(np.array(x))
        return f(x)

    return g, points


def rosenbrock(x):
    return float((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def test_nelder_mead_converges_on_rosenbrock():
    # the stop rule bounds the value, not the location: within 1e-10 of the minimum 0
    f, points = counted(rosenbrock)
    res = nelder_mead(f, [-1.2, 1.0])
    assert res.stop_reason == "converged"
    assert 0.0 <= res.best.value <= 1e-10
    assert res.n_evals == len(points)
    assert res.best.value == rosenbrock(res.best.theta) == min(rosenbrock(x) for x in points)


def test_nelder_mead_stays_out_of_infeasible_points():
    # +inf where x0 <= 0; the minimum 0 at (0.5, -1) lies inside the feasible half-plane
    def bowl(x):
        return float((x[0] - 0.5) ** 2 + (x[1] + 1.0) ** 2) if x[0] > 0.0 else math.inf

    f, points = counted(bowl)
    res = nelder_mead(f, [2.0, 2.0])
    assert res.stop_reason == "converged"
    assert 0.0 <= res.best.value <= 1e-10
    assert res.n_evals == len(points)
    assert res.best.value == bowl(res.best.theta) == min(bowl(x) for x in points)


def test_nelder_mead_stops_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(optimize, "_NM_MAX_ITER", 5)
    f, points = counted(rosenbrock)
    res = nelder_mead(f, [-1.2, 1.0])
    assert res.stop_reason == "max_iter"
    assert res.n_evals == len(points)
    assert res.best.value == min(rosenbrock(x) for x in points)


def nelder_mead_vectors(f, x0, f_tol, x_tol, max_iter=1000):
    """The simplex search on numpy vectors, as the library wrote it before its
    points became float tuples, when it also stopped on a coordinate spread
    x_tol (math.inf gives the library's value-only rule); returns the
    NMResult fields plus, for every stop test, the simplex's (value spread,
    largest coordinate spread)."""
    x0 = np.asarray(x0, dtype=float)
    simplex = [x0, *(x0 + unit for unit in np.eye(x0.size))]
    values = [f(x) for x in simplex]
    n_evals = len(simplex)
    stop_reason = "max_iter"
    spreads = []
    for _ in range(max_iter):
        order = sorted(range(len(values)), key=values.__getitem__)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best, worst = simplex[0], simplex[-1]
        spreads.append((values[-1] - values[0], max(float(np.max(np.abs(x - best))) for x in simplex[1:])))
        if values[-1] - values[0] <= f_tol and all(np.max(np.abs(x - best)) <= x_tol for x in simplex[1:]):
            stop_reason = "converged"
            break
        centroid = sum(simplex[:-1]) / (len(simplex) - 1)
        step = centroid - worst
        reflected = centroid + step
        f_r = f(reflected)
        n_evals += 1
        if f_r < values[0]:
            expanded = centroid + 2.0 * step
            f_e = f(expanded)
            n_evals += 1
            simplex[-1], values[-1] = (expanded, f_e) if f_e < f_r else (reflected, f_r)
            continue
        if f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
            continue
        outside = f_r < values[-1]
        contracted = centroid + (0.5 if outside else -0.5) * step
        f_c = f(contracted)
        n_evals += 1
        if (f_c <= f_r) if outside else (f_c < values[-1]):
            simplex[-1], values[-1] = contracted, f_c
            continue
        simplex = [best, *(best + 0.5 * (x - best) for x in simplex[1:])]
        values = [values[0], *(f(x) for x in simplex[1:])]
        n_evals += len(simplex) - 1
    i = min(range(len(values)), key=values.__getitem__)
    return simplex[i], values[i], stop_reason, n_evals, spreads


def assert_same_search(f, x0):
    """nelder_mead and the vector reference call f at the same points, bit for bit."""
    f_new, points_new = counted(f)
    f_ref, points_ref = counted(f)
    res = nelder_mead(f_new, x0)
    theta, value, stop_reason, n_evals, spreads = nelder_mead_vectors(
        f_ref, x0, optimize._NM_F_TOLERANCE, math.inf
    )
    assert np.array(points_new).tobytes() == np.array(points_ref).tobytes()
    assert type(res.best.theta) is tuple
    assert np.array(res.best.theta).tobytes() == theta.tobytes()
    assert (repr(float(res.best.value)), res.stop_reason, res.n_evals) == (repr(float(value)), stop_reason, n_evals)
    return spreads


def test_nelder_mead_equals_the_vector_reference_on_rosenbrock():
    for x0 in ([-1.2, 1.0], [0.3, -2.5], [-0.0, 0.0]):
        assert_same_search(rosenbrock, x0)


def test_nelder_mead_equals_the_vector_reference_on_a_profile_fit(monkeypatch):
    # the reference panel of seed 1, fitted with the search swapped for the
    # reference: both call the profiled objective at the same (eta, alpha)
    panel = hf.simulate_paths(
        hf.ProcessParams(eta=0.1, alpha=0.45, sigma=0.05, init=hf.InitialDistribution.degenerate(100.0)),
        hf.PathGrid(np.arange(0.0, 51.0)), 50, 1,
    )
    calls = []
    profile_objective = hf.likelihood.profile_objective

    def recorded(stats, eta, alpha, sigma_interior):
        calls[-1].append((eta, alpha))
        return profile_objective(stats, eta, alpha, sigma_interior)

    def reference(f, x0):
        theta, value, stop_reason, n_evals, _ = nelder_mead_vectors(
            f, x0, optimize._NM_F_TOLERANCE, math.inf
        )
        return optimize.NMResult(Candidate(theta, value), stop_reason, n_evals)

    monkeypatch.setattr(hf.likelihood, "profile_objective", recorded)
    fits = []
    for search in (nelder_mead, reference):
        monkeypatch.setattr(optimize, "nelder_mead", search)
        calls.append([])
        fits.append(hf.fit(panel))
    assert calls[0] == calls[1] and len(calls[0]) == fits[0].n_evals
    got, want = fits
    assert repr((got.theta_hat, got.objective_value, got.n_evals, got.stop_reason)) == repr(
        (want.theta_hat, want.objective_value, want.n_evals, want.stop_reason)
    )
    assert got.stop_reason == "converged"


def steep(x):
    return 1e12 * ((x[0] - 0.3) ** 2 + (x[1] + 0.2) ** 2)


def flat(x):
    return 0.0


def test_nelder_mead_stops_at_the_first_simplex_within_the_value_spread():
    # 1e-10 in f, and no test on the coordinates
    assert optimize._NM_F_TOLERANCE == 1e-10 and not hasattr(optimize, "_NM_X_TOLERANCE")
    f_tol = optimize._NM_F_TOLERANCE
    spreads = {f: assert_same_search(f, [-1.2, 1.0]) for f in (rosenbrock, steep, flat)}
    for *before, last in spreads.values():
        assert last[0] <= f_tol
        assert all(v > f_tol for v, _ in before)
    # the simplex is not shrunk in x once its values agree ...
    assert spreads[rosenbrock][-1][1] > 2.0**-26
    # ... so on a flat f the first simplex, of spread 1, is the last
    res = nelder_mead(flat, [-1.2, 1.0])
    assert (res.stop_reason, res.n_evals, res.best.theta) == ("converged", 3, (-1.2, 1.0))
