import math

import numpy as np
import pytest
from scipy.integrate import quad

import hubbertfit as hf
from hubbertfit.curve import ETA_VISIBILITY_FACTOR, alpha_pow
from hubbertfit.errors import ParameterDomainError

P = hf.CurveParams(eta=0.25, alpha=0.5, x0=100.0, t0=0.0)


def test_value_at_t0_is_x0():
    assert hf.hubbert_value(0.0, P) == pytest.approx(100.0, abs=1e-12)


def test_value_oracle():
    # x(1) = 100 * (1.25/0.75)^2 * 0.5 = 1250/9
    assert hf.hubbert_value(1.0, P) == pytest.approx(1250.0 / 9.0, rel=1e-14)
    assert hf.hubbert_value(3.7, P) == pytest.approx(112.4748929070914, rel=1e-12)


def test_value_vectorized():
    t = np.array([0.0, 1.0, 2.0])
    v = hf.hubbert_value(t, P)
    assert v.shape == (3,)
    assert v[1] == pytest.approx(1250.0 / 9.0, rel=1e-14)


def test_curve_is_logistic_derivative():
    # x(t) = dl/dt for l(t) = k/(eta + alpha^t) with k = -x0*(eta+1)^2/ln(alpha)
    k = -P.x0 * (P.eta + 1.0) ** 2 / math.log(P.alpha)
    h = 1e-6

    def logistic(t):
        return k / (P.eta + P.alpha**t)

    for t in (0.0, 1.3, 2.0, 5.5):
        fd = (logistic(t + h) - logistic(t - h)) / (2.0 * h)
        assert fd == pytest.approx(hf.hubbert_value(t, P), rel=1e-8)


def test_peak_time_satisfies_alpha_power_identity():
    t_max = hf.peak_time(0.05, 0.8)
    assert alpha_pow(0.8, t_max) == pytest.approx(0.05, rel=1e-12)
    assert hf.peak_time(P.eta, P.alpha) == pytest.approx(2.0, abs=1e-14)


def test_peak_value_oracle_and_is_maximum():
    assert hf.peak_value(P) == pytest.approx(156.25, rel=1e-14)
    t_max = hf.peak_time(P.eta, P.alpha)
    assert hf.hubbert_value(t_max, P) == pytest.approx(156.25, rel=1e-12)
    for dt in (0.01, 0.5, 3.0):
        assert hf.hubbert_value(t_max + dt, P) < 156.25
        assert hf.hubbert_value(t_max - dt, P) < 156.25


def test_peak_value_at_least_x0():
    # AM-GM: equality iff eta = alpha^t0
    p = hf.CurveParams(eta=0.5, alpha=0.5, x0=42.0, t0=1.0)
    assert hf.peak_value(p) == pytest.approx(42.0, rel=1e-14)
    assert hf.peak_value(P) > P.x0


def test_inflection_times_oracle():
    t1, t2 = hf.inflection_times(0.25, 0.5)
    assert t1 == pytest.approx(0.10003137304700838, rel=1e-12)
    assert t2 == pytest.approx(3.8999686269529916, rel=1e-12)


def test_inflections_bracket_peak_symmetrically():
    t1, t2 = hf.inflection_times(0.1, 0.45)
    t_max = hf.peak_time(0.1, 0.45)
    assert t1 < t_max < t2
    assert t_max - t1 == pytest.approx(t2 - t_max, rel=1e-12)


def test_inflections_are_curvature_sign_changes():
    h = 1e-4

    def second(t):
        return (
            hf.hubbert_value(t + h, P)
            - 2.0 * hf.hubbert_value(t, P)
            + hf.hubbert_value(t - h, P)
        ) / h**2

    t1, t2 = hf.inflection_times(P.eta, P.alpha)
    for t in (t1, t2):
        assert second(t - 0.05) * second(t + 0.05) < 0.0


def test_urr_matches_quadrature():
    total, _ = quad(lambda t: hf.hubbert_value(t, P), -200.0, 400.0, limit=500)
    assert hf.urr(P) == pytest.approx(901.6844005556021, rel=1e-12)
    assert hf.urr(P) == pytest.approx(total, rel=1e-8)


def test_urr_independent_of_anchor_point():
    # re-anchoring the same curve at another (t0, x(t0)) keeps the area
    p2 = hf.CurveParams(eta=P.eta, alpha=P.alpha, x0=hf.hubbert_value(1.0, P), t0=1.0)
    assert hf.urr(p2) == pytest.approx(hf.urr(P), rel=1e-12)


def test_shift_parameters_moves_peak_time():
    k = 7.25
    eta2 = hf.shift_parameters(0.1, 0.45, k)
    assert hf.peak_time(eta2, 0.45) == pytest.approx(hf.peak_time(0.1, 0.45) - k, rel=1e-12)


def test_shift_parameters_is_eta_times_alpha_pow():
    # the one clock map eta' = eta * alpha^(-k), the expression FitResult.eta_unshifted uses
    rng = np.random.default_rng(19)
    for _ in range(2000):
        eta, alpha, k = rng.uniform(1e-3, 2.0), rng.uniform(0.05, 0.99), rng.uniform(-200.0, 200.0)
        assert hf.shift_parameters(eta, alpha, k) == eta * alpha_pow(alpha, -k)


def test_shift_parameters_overflow_warns_and_returns_inf():
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert hf.shift_parameters(0.1, 0.01, 3000.0) == math.inf


def test_shift_preserves_curve_values():
    k = 3.0
    eta2 = hf.shift_parameters(P.eta, P.alpha, k)
    p2 = hf.CurveParams(eta=eta2, alpha=P.alpha, x0=P.x0, t0=P.t0 - k)
    for t in (0.5, 2.0, 6.0):
        assert hf.hubbert_value(t - k, p2) == pytest.approx(
            hf.hubbert_value(t, P), rel=1e-12
        )


def test_visibility_factor_value():
    assert ETA_VISIBILITY_FACTOR == pytest.approx(2.0 - math.sqrt(3.0), abs=0.0)


def test_first_inflection_visible_iff_eta_small():
    below = hf.CurveParams(eta=0.99 * ETA_VISIBILITY_FACTOR, alpha=0.5, x0=1.0)
    above = hf.CurveParams(eta=1.01 * ETA_VISIBILITY_FACTOR, alpha=0.5, x0=1.0)
    assert hf.inflection_times(below.eta, below.alpha)[0] > below.t0
    assert hf.inflection_times(above.eta, above.alpha)[0] < above.t0


@pytest.mark.parametrize(
    "eta,alpha,x0",
    [(-0.1, 0.5, 1.0), (0.0, 0.5, 1.0), (0.1, 0.0, 1.0), (0.1, 1.0, 1.0), (0.1, 1.5, 1.0), (0.1, 0.5, 0.0)],
)
def test_domain_validation(eta, alpha, x0):
    with pytest.raises(ParameterDomainError):
        hf.CurveParams(eta=eta, alpha=alpha, x0=x0)


@pytest.mark.parametrize("x0,t0", [(math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
def test_curve_refuses_non_finite_anchor(x0, t0):
    # a NaN t0 once gave NaN peak values and URRs
    with pytest.raises(ParameterDomainError, match="x0|t0"):
        hf.CurveParams(eta=0.1, alpha=0.5, x0=x0, t0=t0)


def test_alpha_power_underflows_to_zero():
    assert alpha_pow(0.5, 10000.0) == 0.0
    assert np.isfinite(hf.hubbert_value(10000.0, P))


def test_curve_refuses_an_overflowing_alpha_power():
    # alpha^t0 = inf made ln(eta + alpha^t0) inf: peak_value and urr of this curve returned NaN
    with pytest.raises(ParameterDomainError) as info:
        hf.CurveParams(0.1, 0.5, 1.0, -5000.0)
    assert str(info.value) == "alpha^t0 overflows at alpha=0.5, t0=-5000.0"


def test_overflow_refusal_is_exactly_where_alpha_power_overflows():
    edge = math.log(np.finfo(float).max) / math.log(0.5)
    t0s = [edge]
    for _ in range(3):  # three more floats on each side of the edge
        t0s = [float(np.nextafter(t0s[0], 0.0)), *t0s, float(np.nextafter(t0s[-1], -math.inf))]
    with np.errstate(over="ignore"):
        overflows = [bool(np.isinf(alpha_pow(0.5, t0))) for t0 in t0s]
    assert not overflows[0] and overflows[-1]
    for t0, over in zip(t0s, overflows):
        if over:
            with pytest.raises(ParameterDomainError, match="overflows"):
                hf.CurveParams(0.1, 0.5, 1.0, t0)
        else:
            hf.CurveParams(0.1, 0.5, 1.0, t0)


@pytest.mark.parametrize("call", [
    lambda p: hf.peak_value(p),
    lambda p: hf.urr(p),
    lambda p: hf.inference.peak_gradient(p.eta, p.alpha, p.x0, p.t0),
], ids=["peak_value", "urr", "peak_gradient"])
def test_peak_formulas_refuse_an_alpha_power_that_underflows_to_zero(call):
    # they divide by alpha^t0: peak_value once returned inf with numpy's divide-by-zero warning
    p = hf.CurveParams(0.1, 0.5, 1.0, 8000.0)
    with pytest.raises(ParameterDomainError) as info:
        call(p)
    assert str(info.value) == "alpha^t0 underflows to 0 at alpha=0.5, t0=8000.0"
    # the curve itself stays defined: calendar clocks underflow alpha^t0 on purpose
    assert hf.hubbert_value(8001.0, p) == pytest.approx(0.5, rel=1e-12)
