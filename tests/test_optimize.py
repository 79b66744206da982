import math

import numpy as np
import pytest
from scipy import stats

import hubbertfit as hf
from hubbertfit.errors import InitializationError, ParameterDomainError
from hubbertfit.optimize import FALLBACK_T0, Candidate, _half_width, _propose

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
    boxes = [hf.vns_neighborhood(theta0, k, config, BOX) for k in range(1, 6)]
    for small, big in zip(boxes, boxes[1:]):
        assert np.all(small.lower >= big.lower) and np.all(small.upper <= big.upper)
    for box in boxes:
        assert box.contains(theta0)
    np.testing.assert_allclose(boxes[-1].lower, BOX.lower, atol=1e-15)
    np.testing.assert_allclose(boxes[-1].upper, BOX.upper, atol=1e-15)


def test_vns_neighborhood_validation():
    config = hf.VNSConfig(k_max=5)
    with pytest.raises(ParameterDomainError):
        hf.vns_neighborhood(np.array([0.1, 0.45, 0.05]), 6, config, BOX)
    with pytest.raises(ParameterDomainError):
        hf.vns_neighborhood(np.array([0.1, 1.45, 0.05]), 1, config, BOX)


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
