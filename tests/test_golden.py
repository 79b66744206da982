"""Pinned seeded outputs.

The other determinism tests compare one run with another run of the same
code, so they cannot see a change that moves every run alike.  These
values were recorded from the library before its annealing hot path was
rewritten; an edit to the objective closure or the SA step must
reproduce them bit for bit (values are compared through repr of Python
floats).  An edit to the rounding of the likelihood kernel (the order of
its products and sums) may move objective values in their last bits, and
only those: the short-chain fit's objective_value and the profile fit's
objective_value and theta_hat.  The annealer compares objective values
exactly, so such an edit must still leave the short-chain fit's
theta_hat, n_evals and stop reason, its forecast bands and peak as they
are; each moved pin is checked against its old value before it is
re-recorded.  The forecast bands, the conditional peak, the reference
panel and the curve/transition digest were recorded before the Hubbert
curve was routed through one log-mean formula, which had to keep them
too.  The short-chain fits name the paper's "vns-sa" search, which was
the default when they were recorded; the profile fit's pin was recorded
when that path was added, and its n_evals again (172 -> 147, theta_hat
and objective unchanged) when Nelder-Mead's coordinate tolerance became
sqrt(eps).
"""

import hashlib

import numpy as np
import pytest

import hubbertfit as hf
from hubbertfit.datasets import NORWAY_URR, load_norway

SPHERE_CENTER = np.array([0.12, 0.5, 0.04])


def test_norway_short_chain_fit_is_pinned():
    fit = hf.fit(
        load_norway(), urr=NORWAY_URR, algorithm="vns-sa", sa_config=hf.SAConfig(chain_length=10), seed=1
    )
    assert repr(tuple(float(v) for v in fit.theta_hat)) == (
        "(0.050353565125698586, 0.8724000018221914, 0.06233293014781471)"
    )
    assert repr(float(fit.objective_value)) == "-78.28548364784703"
    assert fit.n_evals == 23556
    assert fit.stop_reason == "stall"


def test_norway_profile_fit_is_pinned():
    fit = hf.fit(load_norway(), urr=NORWAY_URR)
    assert repr(tuple(float(v) for v in fit.theta_hat)) == (
        "(0.047011942278595696, 0.8685462631921985, 0.060428466485833526)"
    )
    assert repr(float(fit.objective_value)) == "-78.38362310158337"
    assert fit.n_evals == 147
    assert fit.stop_reason == "converged"


def test_sphere_annealing_is_pinned():
    def sphere(theta):
        return float(np.sum((np.asarray(theta) - SPHERE_CENTER) ** 2))

    result = hf.simulated_annealing(sphere, hf.SolutionBox(), seed=5)
    assert repr(float(result.best.value)) == "0.0015574940663550193"
    assert result.n_evals == 1251
    assert repr(float(result.t_initial)) == "0.26973570733005336"


@pytest.fixture(scope="module")
def norway_short_chain_fit():
    return hf.fit(
        load_norway(), urr=NORWAY_URR, algorithm="vns-sa", sa_config=hf.SAConfig(chain_length=10), seed=1
    )


def test_norway_short_chain_forecast_is_pinned(norway_short_chain_fit):
    fc = hf.forecast(norway_short_chain_fit, s=2014.0, x_s=1568.0, horizon_times=range(2015, 2041))
    rows = [repr((float(p), float(lo), float(hi))) for p, lo, hi in zip(fc.point, fc.lower, fc.upper)]
    assert rows == [
        "(1425.8200080503336, 1378.6727633757214, 1472.9672527249459)",
        "(1290.6153629762975, 1205.6570429366889, 1375.5736830159062)",
        "(1163.4041651401535, 1049.1393145758495, 1277.6690157044575)",
        "(1044.8240165078582, 908.8075123357493, 1180.840520679967)",
        "(935.1893144207003, 783.9796228124612, 1086.3990060289393)",
        "(834.5501929540347, 673.717932779061, 995.3824531290085)",
        "(742.7490437339637, 576.9254758629124, 908.572611605015)",
        "(659.4719688432316, 492.42381443455946, 826.5201232519037)",
        "(584.2937042172173, 419.0130494963119, 749.5743589381227)",
        "(516.7154624308789, 355.51599259095167, 677.9149322708062)",
        "(456.1957878489965, 300.8089229068096, 611.5826527911834)",
        "(402.17493110006177, 253.8414545771884, 550.5084076229351)",
        "(354.09348126203344, 213.64789599280667, 494.53906653126023)",
        "(311.4060909999092, 179.35220540410015, 443.45997659571833)",
        "(273.5911346256937, 150.16831392992847, 397.013955321459)",
        "(240.1570860340254, 125.39724964152639, 354.9169224265244)",
        "(210.6463186364648, 104.42218473162933, 316.87045254130027)",
        "(184.63693112177071, 86.70225680465651, 282.57160543888494)",
        "(161.74310323902824, 71.76578989780269, 251.7204165802538)",
        "(141.61439221182678, 59.20335974979916, 224.0254246738544)",
        "(123.93429679458498, 48.66100659668905, 199.2075869924809)",
        "(108.4183439931748, 39.833791523052355, 177.00289646329725)",
        "(94.811893217032, 32.45981302513877, 157.16397340892522)",
        "(82.88780335769037, 26.314743249700555, 139.46086346568018)",
        "(72.44406879600254, 21.20690337705826, 123.68123421494681)",
        "(63.30149925172909, 16.972870655008933, 109.63012784844925)",
    ]


def test_norway_short_chain_conditional_peak_is_pinned(norway_short_chain_fit):
    peak = hf.estimate_peak(norway_short_chain_fit, y=1568.0, s=2014.0)
    assert repr(tuple(float(v) for v in (peak.peak_time, peak.peak_time_se, peak.peak, peak.peak_se))) == (
        "(2001.8939727979223, 1.6006523016410403, 2905.459951805368, 558.2386756552106)"
    )


def test_reference_panel_is_pinned():
    # the benchmark's reference protocol: 50 paths on the integer times 0..50
    process = hf.ProcessParams(
        eta=0.1, alpha=0.45, sigma=0.05, init=hf.InitialDistribution.degenerate(100.0)
    )
    panel = hf.simulate_paths(process, hf.PathGrid(np.arange(0.0, 51.0)), 50, seed=1)
    assert hashlib.sha256(np.concatenate(panel.values).tobytes()).hexdigest() == (
        "befab544cbf4a935aa43869c7a991bfd789c558cae219a3d32af2e554d9eeafd"
    )


def test_curve_and_transition_values_are_pinned():
    # 200 random parameter sets: conditional means, transition log-densities and
    # log-scale means depend on the order in which the log-mean terms are added
    rng = np.random.default_rng(4)
    values = []
    for _ in range(200):
        eta, alpha = rng.uniform(0.001, 2.0), rng.uniform(0.05, 0.99)
        y, s, sigma = rng.uniform(1.0, 5000.0), rng.uniform(-20.0, 40.0), rng.uniform(0.01, 0.3)
        t = np.sort(s + rng.uniform(0.1, 60.0, 10))
        p = hf.ProcessParams(eta, alpha, sigma, hf.InitialDistribution(np.log(y), 0.01), t0=s)
        values.append(hf.conditional_mean(t, y, s, eta, alpha))
        values.append(hf.transition_logpdf(y * rng.uniform(0.5, 2.0, 10), t[0], y, s, p))
        values.append(hf.finite_dim_params(t, p)[0])
    assert hashlib.sha256(np.concatenate(values).tobytes()).hexdigest() == (
        "3241a8c6aa4ba28b8d6a866a0584922f7e734b8cf831d21e9b4f36084c9e2c52"
    )
