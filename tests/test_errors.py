"""The scalar and time-ordering rules of errors.py, at every site that applies one.

Each scalar rule raises ParameterDomainError, and each ordering rule
OrderingError, with one fixed wording, so a site's message is known from
its rule and the names it passes.  Infinity is
refused everywhere a value must be positive: an infinite eta, sigma, x0
or cap once passed at several of these sites and turned into NaN, zeros
or a cap of 0.0 downstream.
"""

import math

import numpy as np
import pytest

import hubbertfit as hf
from hubbertfit import inference, likelihood
from hubbertfit.bounds import SolutionBox
from hubbertfit.errors import OrderingError, ParameterDomainError

MESSAGES = {
    "positive": "{name} must be positive and finite, got {value}",
    "finite": "{name} must be finite, got {value}",
    "nonnegative": "{name} must be finite and nonnegative, got {value}",
    "unit": "{name} must lie in (0, 1), got {value}",
}
BAD = {
    "positive": (math.inf, math.nan, 0.0, -1.0),
    "finite": (math.inf, -math.inf, math.nan),
    "nonnegative": (math.inf, math.nan, -1.0),
    "unit": (math.inf, math.nan, 0.0, 1.0, -1.0),
}

PANEL = hf.simulate_paths(
    hf.ProcessParams(eta=0.1, alpha=0.45, sigma=0.05, init=hf.InitialDistribution.degenerate(100.0)),
    hf.PathGrid(np.arange(0.0, 11.0)),
    3,
    1,
)
STATS = hf.SufficientStats.from_panel(PANEL)
INIT = hf.InitialDistribution.degenerate(100.0)
PROCESS = hf.ProcessParams(0.1, 0.45, 0.05, INIT)
FIT = inference.FitResult(
    theta_hat=(0.1, 0.45, 0.05), mu1_hat=math.log(100.0), sigma1_sq_hat=0.0, objective_value=0.0,
    log_likelihood=0.0, fisher=np.eye(3), cov=np.zeros((3, 3)), time_shift_k=0.0, n_obs=0, d=1,
    box=SolutionBox(),
)

# (site, rule, name in the message, call with the bad value)
SITES = [
    ("CurveParams.eta", "positive", "eta", lambda v: hf.CurveParams(v, 0.5, 100.0)),
    ("CurveParams.alpha", "unit", "alpha", lambda v: hf.CurveParams(0.1, v, 100.0)),
    ("CurveParams.x0", "positive", "x0", lambda v: hf.CurveParams(0.1, 0.5, v)),
    ("CurveParams.t0", "finite", "t0", lambda v: hf.CurveParams(0.1, 0.5, 100.0, v)),
    ("peak_time.eta", "positive", "eta", lambda v: hf.peak_time(v, 0.5)),
    ("InitialDistribution.degenerate.x0", "positive", "x0", hf.InitialDistribution.degenerate),
    ("InitialDistribution.mu0", "finite", "the initial log-mean", lambda v: hf.InitialDistribution(v)),
    ("InitialDistribution.sigma0_sq", "nonnegative", "the initial log-variance",
     lambda v: hf.InitialDistribution(4.6, v)),
    ("ProcessParams.eta", "positive", "eta", lambda v: hf.ProcessParams(v, 0.45, 0.05, INIT)),
    ("ProcessParams.sigma", "nonnegative", "sigma", lambda v: hf.ProcessParams(0.1, 0.45, v, INIT)),
    ("ProcessParams.t0", "finite", "t0", lambda v: hf.ProcessParams(0.1, 0.45, 0.05, INIT, v)),
    ("transition_logpdf.s", "finite", "s", lambda v: hf.transition_logpdf(1.0, 2.0, 1.0, v, PROCESS)),
    ("transition_logpdf.t", "finite", "t", lambda v: hf.transition_logpdf(1.0, v, 1.0, 1.0, PROCESS)),
    ("transition_logpdf.x", "positive", "x", lambda v: hf.transition_logpdf(v, 2.0, 1.0, 1.0, PROCESS)),
    ("transition_logpdf.y", "positive", "y", lambda v: hf.transition_logpdf(1.0, 2.0, v, 1.0, PROCESS)),
    ("hubbert_value.t", "finite", "t", lambda v: hf.hubbert_value(v, hf.CurveParams(0.1, 0.5, 100.0))),
    ("eta_alpha_sums.eta", "positive", "eta", lambda v: hf.eta_alpha_sums(STATS, v, 0.5)),
    ("eta_alpha_sums.alpha", "unit", "alpha", lambda v: hf.eta_alpha_sums(STATS, 0.1, v)),
    ("objective.eta", "positive", "eta", lambda v: hf.objective(STATS, v, 0.45, 0.01)),
    ("objective.sigma_sq", "positive", "sigma_sq", lambda v: hf.objective(STATS, 0.1, 0.45, v)),
    ("log_likelihood.sigma_sq", "positive", "sigma_sq",
     lambda v: hf.log_likelihood(STATS, 4.6, 0.0, 0.1, 0.45, v)),
    ("log_likelihood.mu1", "finite", "the initial log-mean",
     lambda v: hf.log_likelihood(STATS, v, 0.0, 0.1, 0.45, 0.01)),
    ("log_likelihood.sigma1_sq", "nonnegative", "the initial log-variance",
     lambda v: hf.log_likelihood(STATS, 4.6, v, 0.1, 0.45, 0.01)),
    ("profile_pass.eta", "positive", "eta", lambda v: likelihood.profile_pass(STATS, v, 0.45, (1e-6, 0.1))),
    ("alpha1.x0", "positive", "x0", lambda v: hf.alpha1(v, 1e5)),
    ("alpha1.urr", "positive", "urr", lambda v: hf.alpha1(100.0, v)),
    ("alpha2.c", "positive", "c", lambda v: hf.alpha2(v, 1e5, 0.0, 10.0)),
    ("alpha2.urr", "positive", "urr", lambda v: hf.alpha2(100.0, v, 0.0, 10.0)),
    ("alpha2.t0", "finite", "t0", lambda v: hf.alpha2(100.0, 1e5, v, 10.0)),
    ("alpha2.tF", "finite", "tF", lambda v: hf.alpha2(100.0, 1e5, 0.0, v)),
    ("build_box.sigma_cap", "positive", "sigma_cap", lambda v: hf.build_box(PANEL, sigma_cap=v)),
    ("fisher_information.eta", "positive", "eta", lambda v: hf.fisher_information((v, 0.45, 0.05), STATS)),
    ("fisher_information.sigma", "positive", "sigma", lambda v: hf.fisher_information((0.1, 0.45, v), STATS)),
    ("estimate_peak.y", "positive", "conditioning value y", lambda v: hf.estimate_peak(FIT, y=v, s=5.0)),
    ("estimate_peak.s", "finite", "conditioning time s", lambda v: hf.estimate_peak(FIT, y=100.0, s=v)),
    ("forecast.level", "unit", "level", lambda v: hf.forecast(FIT, 5.0, 100.0, [6.0], level=v)),
    ("forecast.s", "finite", "s", lambda v: hf.forecast(FIT, v, 100.0, [6.0])),
    ("forecast.x_s", "positive", "x_s", lambda v: hf.forecast(FIT, 5.0, v, [6.0])),
    ("SAConfig.p0", "unit", "p0", lambda v: hf.SAConfig(p0=v)),
    ("SAConfig.gamma", "unit", "gamma", lambda v: hf.SAConfig(gamma=v)),
    ("SAConfig.t_final", "positive", "t_final", lambda v: hf.SAConfig(t_final=v)),
]


@pytest.mark.parametrize(
    "rule, name, call, value",
    [
        pytest.param(rule, name, call, value, id=f"{site}={value}")
        for site, rule, name, call in SITES
        for value in BAD[rule]
    ],
)
def test_every_site_raises_its_rule_message(rule, name, call, value):
    with pytest.raises(ParameterDomainError) as info:
        call(value)
    assert str(info.value) == MESSAGES[rule].format(name=name, value=value)


@pytest.mark.parametrize("call", [
    # each was accepted once, and gave NaN, a matrix of zeros, a cap of 0.0 or inf
    pytest.param(lambda: hf.CurveParams(math.inf, 0.5, 100.0), id="CurveParams"),
    pytest.param(lambda: hf.eta_alpha_sums(STATS, math.inf, 0.5), id="eta_alpha_sums"),
    pytest.param(lambda: hf.fisher_information((math.inf, 0.5, 0.1), STATS), id="fisher_information-eta"),
    pytest.param(lambda: hf.fisher_information((0.1, 0.5, math.inf), STATS), id="fisher_information-sigma"),
    pytest.param(lambda: hf.alpha1(math.inf, 1e5), id="alpha1"),
    pytest.param(lambda: hf.SAConfig(t_final=math.inf), id="SAConfig"),
    pytest.param(lambda: hf.objective(STATS, 0.1, 0.45, math.inf), id="objective"),
])
def test_infinite_values_that_passed_are_refused(call):
    with pytest.raises(ParameterDomainError, match="must be positive and finite, got inf"):
        call()


@pytest.mark.parametrize("call", [
    # each returned NaN, -inf or the uncapped alpha range 1.0 without a word:
    # NaN passed the order and sign tests, and no time was checked for finiteness
    pytest.param(lambda: hf.transition_logpdf(math.nan, 2.0, 1.0, 1.0, PROCESS), id="transition_logpdf-x"),
    pytest.param(lambda: hf.transition_logpdf(1.0, math.inf, 1.0, 1.0, PROCESS), id="transition_logpdf-t"),
    pytest.param(lambda: hf.transition_logpdf(1.0, 2.0, 1.0, -math.inf, PROCESS), id="transition_logpdf-s"),
    pytest.param(lambda: hf.transition_logpdf(1.0, 2.0, math.inf, 1.0, PROCESS), id="transition_logpdf-y"),
    pytest.param(lambda: hf.transition_logpdf([1.0, math.nan], 2.0, 1.0, 1.0, PROCESS), id="transition_logpdf-x-array"),
    pytest.param(lambda: hf.hubbert_value(math.nan, hf.CurveParams(0.1, 0.45, 100.0)), id="hubbert_value"),
    pytest.param(lambda: hf.hubbert_value([1.0, math.inf], hf.CurveParams(0.1, 0.45, 100.0)), id="hubbert_value-array"),
    pytest.param(lambda: hf.conditional_mean(math.nan, 100.0, 0.0, 0.1, 0.45), id="conditional_mean"),
    pytest.param(lambda: hf.conditional_mean([1.0, math.inf], 100.0, 0.0, 0.1, 0.45), id="conditional_mean-array"),
    pytest.param(lambda: hf.mean(math.nan, PROCESS), id="mean"),
    pytest.param(lambda: hf.alpha2(100.0, 1e5, 0.0, math.inf), id="alpha2"),
])
def test_non_finite_values_that_passed_are_refused(call):
    with pytest.raises(ParameterDomainError, match="must be (positive and )?finite, got"):
        call()


def test_valid_values_pass_every_rule():
    # t0 = -1e300 would overflow alpha^t0; an underflow to 0 is legal
    hf.CurveParams(1e300, 0.5, 1e300, 1e300)
    hf.ProcessParams(0.1, 0.45, 0.0, hf.InitialDistribution(-700.0, 0.0))
    hf.SAConfig(p0=1e-300, gamma=1.0 - 1e-16, t_final=1e-300)


def test_transition_logpdf_needs_positive_sigma():
    # ProcessParams takes sigma = 0 for simulation; the density needs sigma > 0
    p = hf.ProcessParams(0.1, 0.45, 0.0, INIT)
    with pytest.raises(ParameterDomainError) as info:
        hf.transition_logpdf(1.0, 2.0, 1.0, 1.0, p)
    assert str(info.value) == "sigma must be positive and finite, got 0.0"


ORDERINGS = {
    "increasing": "{name} must be strictly increasing",
    "after": "{name} must lie strictly after {origin}, got {value}",
    "not before": "{name} must not lie before {origin}, got {value}",
}
NAN = math.nan

# (site, rule, name, origin, call that breaks the rule, value it reports,
#  call with a NaN time, the exception that NaN raises: each site keeps its check order)
ORDERING_SITES = [
    ("PanelData", "increasing", "path 1: times", None,
     lambda: hf.PanelData([np.arange(3.0), np.array([0.0, 2.0, 1.0])], [np.ones(3)] * 2), None,
     lambda: hf.PanelData([np.array([0.0, NAN, 2.0])], [np.ones(3)]), OrderingError),
    ("PathGrid", "increasing", "grid times", None, lambda: hf.PathGrid([0.0, 1.0, 1.0]), None,
     lambda: hf.PathGrid([0.0, NAN]), OrderingError),
    ("finite_dim_params.increasing", "increasing", "times", None,
     lambda: hf.finite_dim_params([2.0, 1.0], PROCESS), None,
     lambda: hf.finite_dim_params([1.0, NAN], PROCESS), OrderingError),
    ("transition_logpdf", "after", "t", "s = 2.0", lambda: hf.transition_logpdf(1.0, 2.0, 1.0, 2.0, PROCESS), 2.0,
     lambda: hf.transition_logpdf(1.0, NAN, 1.0, 1.0, PROCESS), ParameterDomainError),
    ("forecast", "after", "horizon times", "s = 5.0", lambda: hf.forecast(FIT, 5.0, 100.0, [6.0, 4.0]),
     np.array([6.0, 4.0]), lambda: hf.forecast(FIT, 5.0, 100.0, [NAN]), ParameterDomainError),
    ("alpha2", "after", "tF", "t0 = 10.0", lambda: hf.alpha2(100.0, 1e5, 10.0, 9.0), 9.0,
     lambda: hf.alpha2(100.0, 1e5, 10.0, NAN), ParameterDomainError),
    ("conditional_mean", "not before", "t", "s = 3.0", lambda: hf.conditional_mean(2.0, 100.0, 3.0, 0.1, 0.45),
     np.asarray(2.0), lambda: hf.conditional_mean(NAN, 100.0, 3.0, 0.1, 0.45), ParameterDomainError),
    ("finite_dim_params.t0", "not before", "times", "t0 = 0.0", lambda: hf.finite_dim_params([-1.0, 1.0], PROCESS),
     np.array([-1.0, 1.0]), lambda: hf.finite_dim_params([NAN], PROCESS), ParameterDomainError),
]


@pytest.mark.parametrize(
    "rule, name, origin, call, value",
    [pytest.param(*row[1:6], id=row[0]) for row in ORDERING_SITES],
)
def test_every_site_raises_its_ordering_message(rule, name, origin, call, value):
    with pytest.raises(OrderingError) as info:
        call()
    assert str(info.value) == ORDERINGS[rule].format(name=name, origin=origin, value=value)


@pytest.mark.parametrize("call, error", [pytest.param(*row[6:], id=row[0]) for row in ORDERING_SITES])
def test_a_nan_time_raises_what_its_site_checks_first(call, error):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error
