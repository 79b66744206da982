import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import hubbertfit as hf
from hubbertfit import datasets
from hubbertfit.bounds import ETA_UPPER, alpha_caps, cumulative_trapezoid
from hubbertfit.errors import InfeasibleRegionError, OrderingError, ParameterDomainError

TABLE = Path(__file__).parent / "data" / "alpha_bounds_table.csv"


def load_table():
    with open(TABLE, newline="") as handle:
        return [
            (float(r["eta"]), float(r["alpha"]), float(r["alpha1"]), float(r["alpha2"]))
            for r in csv.DictReader(handle)
        ]


def closed_form_cumulative(eta, alpha, x0, h):
    # integral of the curve over [0, h]: eta*URR*(1-alpha^h)/((eta+1)*(eta+alpha^h))
    u = hf.urr(hf.CurveParams(eta=eta, alpha=alpha, x0=x0, t0=0.0))
    return eta * u * (1.0 - alpha**h) / ((eta + 1.0) * (eta + alpha**h))


def test_alpha_caps_reproduce_reference_grid():
    # 19 alpha rows x 8 eta columns at t0=0, tF=50, x0=100
    rows = load_table()
    assert len(rows) == 152
    for eta, alpha, a1_ref, a2_ref in rows:
        p = hf.CurveParams(eta=eta, alpha=alpha, x0=100.0, t0=0.0)
        u = hf.urr(p)
        c = closed_form_cumulative(eta, alpha, 100.0, 50.0)
        assert hf.alpha1(100.0, u) == pytest.approx(a1_ref, abs=1e-4)
        assert hf.alpha2(c, u, 0.0, 50.0) == pytest.approx(a2_ref, abs=1e-4)


def test_alpha1_formula():
    assert hf.alpha1(100.0, 400.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_alpha_caps_monotone_in_urr():
    grid = np.linspace(2000.0, 50000.0, 20)
    a1 = [hf.alpha1(100.0, u) for u in grid]
    a2 = [hf.alpha2(1500.0, u, 0.0, 30.0) for u in grid]
    assert np.all(np.diff(a1) > 0.0)
    assert np.all(np.diff(a2) > 0.0)


def test_alpha_caps_in_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x0 = rng.uniform(1.0, 500.0)
        u = rng.uniform(10.0, 1e5)
        c = rng.uniform(0.01, 0.99) * u
        assert 0.0 < hf.alpha1(x0, u) < 1.0
        assert 0.0 < hf.alpha2(c, u, 0.0, rng.uniform(1.0, 60.0)) < 1.0


def test_alpha2_requires_c_below_urr():
    with pytest.raises(InfeasibleRegionError):
        hf.alpha2(500.0, 400.0, 0.0, 10.0)
    with pytest.raises(OrderingError):
        hf.alpha2(100.0, 400.0, 10.0, 10.0)


def test_urr_must_be_positive_and_finite():
    # an infinite URR once gave the uncapped alpha range without a word
    panel = hf.PanelData(times=[np.arange(0.0, 10.0)], values=[np.linspace(1.0, 5.0, 10)])
    for urr in (math.inf, math.nan, 0.0, -1.0):
        for call in (
            lambda: hf.alpha1(10.0, urr),
            lambda: hf.alpha2(100.0, urr, 0.0, 10.0),
            lambda: hf.build_box(panel, urr=urr),
        ):
            with pytest.raises(ParameterDomainError, match="urr must be positive and finite"):
                call()


def test_cumulative_trapezoid_matches_closed_form():
    t = np.linspace(0.0, 50.0, 5001)
    p = hf.CurveParams(eta=0.05, alpha=0.8, x0=100.0, t0=0.0)
    panel = hf.PanelData(times=[t], values=[hf.hubbert_value(t, p)])
    assert cumulative_trapezoid(panel) == pytest.approx(
        closed_form_cumulative(0.05, 0.8, 100.0, 50.0), rel=1e-6
    )


def test_build_box_fallback_without_urr():
    panel = hf.PanelData(times=[np.array([0.0, 1.0])], values=[np.array([1.0, 2.0])])
    box = hf.build_box(panel)
    assert box.alpha_range == (0.0, 1.0)
    assert box.eta_range == (0.0, ETA_UPPER)
    assert box.sigma_range == (0.0, 0.1)


def test_build_box_uses_min_of_caps():
    t = np.arange(0.0, 51.0)
    p = hf.CurveParams(eta=0.05, alpha=0.8, x0=100.0, t0=0.0)
    panel = hf.PanelData(times=[t], values=[hf.hubbert_value(t, p)])
    u = hf.urr(p)
    box = hf.build_box(panel, urr=u)
    a1 = hf.alpha1(100.0, u)
    a2 = hf.alpha2(cumulative_trapezoid(panel), u, 0.0, 50.0)
    assert box.alpha_range[1] == pytest.approx(min(a1, a2), rel=1e-14)


def test_alpha_caps_are_the_box_caps():
    t = np.arange(0.0, 51.0)
    p = hf.CurveParams(eta=0.05, alpha=0.8, x0=100.0, t0=0.0)
    panel = hf.PanelData(times=[t], values=[hf.hubbert_value(t, p)])
    u = hf.urr(p)
    caps = alpha_caps(panel, u)
    assert caps == (hf.alpha1(100.0, u), hf.alpha2(cumulative_trapezoid(panel), u, 0.0, 50.0))
    assert hf.build_box(panel, urr=u).alpha_range[1] == min(caps)
    with pytest.raises(InfeasibleRegionError):
        alpha_caps(panel, urr=0.5 * cumulative_trapezoid(panel))


def test_build_box_rejects_inconsistent_urr():
    panel = hf.PanelData(
        times=[np.array([0.0, 1.0, 2.0])], values=[np.array([10.0, 10.0, 10.0])]
    )
    with pytest.raises(InfeasibleRegionError):
        hf.build_box(panel, urr=5.0)


def test_norway_snapshot_alpha_cap():
    box = hf.build_box(datasets.load_norway(), urr=datasets.NORWAY_URR)
    assert box.alpha_range[1] == pytest.approx(0.8724, abs=1e-4)


def test_kazakhstan_snapshot_alpha_cap():
    box = hf.build_box(datasets.load_kazakhstan(), urr=datasets.KAZAKHSTAN_URR)
    assert box.alpha_range[1] == pytest.approx(0.9603, abs=1e-4)


def test_eta_upper_value():
    assert ETA_UPPER == pytest.approx(2.0 - math.sqrt(3.0), abs=0.0)


def test_box_contains_and_clip():
    box = hf.SolutionBox(alpha_range=(0.0, 0.8))
    assert box.contains((0.1, 0.4, 0.05))
    assert not box.contains((0.1, 0.9, 0.05))
    assert not box.contains((0.0, 0.4, 0.05))
    clipped = box.clip_interior((-1.0, 2.0, 0.05))
    assert box.contains(clipped)
    inner = np.array([0.1, 0.4, 0.05])
    np.testing.assert_array_equal(box.clip_interior(inner), inner)


def test_box_validation():
    with pytest.raises(ParameterDomainError):
        hf.SolutionBox(alpha_range=(0.5, 0.5))
    with pytest.raises(ParameterDomainError):
        hf.SolutionBox(alpha_range=(0.0, 1.5))
    with pytest.raises(ParameterDomainError):
        hf.build_box(
            hf.PanelData(times=[np.array([0.0, 1.0])], values=[np.array([1.0, 1.0])]),
            sigma_cap=0.0,
        )
    for ranges in (
        {"eta_range": (0.0, math.inf)},
        {"alpha_range": (-math.inf, 0.5)},
        {"sigma_range": (0.0, 1e309)},
        {"eta_range": (-1e308, 1e308)},  # finite ends, infinite width
    ):
        with pytest.raises(ParameterDomainError, match="must be finite"):
            hf.SolutionBox(**ranges)
    panel = hf.PanelData(times=[np.array([0.0, 1.0])], values=[np.array([1.0, 2.0])])
    for cap in (math.inf, math.nan):
        with pytest.raises(ParameterDomainError, match="sigma_cap"):
            hf.build_box(panel, sigma_cap=cap)


def test_box_bounds_are_set_once():
    box = hf.SolutionBox(eta_range=(0.01, 0.2), alpha_range=(0.3, 0.9), sigma_range=(1e-3, 0.1))
    np.testing.assert_array_equal(box.lower, [0.01, 0.3, 1e-3])
    np.testing.assert_array_equal(box.upper, [0.2, 0.9, 0.1])
    np.testing.assert_array_equal(box.widths, box.upper - box.lower)
    inner_lo, inner_hi = box.interior
    np.testing.assert_array_equal(inner_lo, box.lower + 1e-12 * box.widths)
    np.testing.assert_array_equal(inner_hi, box.upper - 1e-12 * box.widths)
    np.testing.assert_array_equal(box.clip_interior([-1.0, 2.0, 0.05]), [inner_lo[0], inner_hi[1], 0.05])
    for name in ("lower", "upper", "widths", "interior"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(box, name, getattr(box, name))
