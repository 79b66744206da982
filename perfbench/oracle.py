"""Profiled-likelihood oracle: the (eta, alpha) optimum with sigma^2 solved exactly.

With v = sigma^2, the library objective of a panel is

    g(v) = (n/2) ln v + C0/(2v) + C1/2 + z2 v/8,
    C0 = z1 + 4(Y1 - Y2) + L^2 z2 - 2L(z3 - 2R),   C1 = z3 - 2R - L z2,

where L = ln(alpha), n = N - d and (Y1, Y2, R) = eta_alpha_sums(eta, alpha).
dg/dv has the single root v* = 2(sqrt(n^2 + z2 C0) - n)/z2 and g falls
before it and rises after, so clipping v* to the sigma box gives the
exact minimum over v.  What is left is a smooth 2-d problem, solved by a
multistart Nelder-Mead.  Only the public eta_alpha_sums, objective and
SufficientStats fields are used.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize, minimize_scalar

# Nelder-Mead starts per axis, spread over the box in logit coordinates.
_GRID = (-2.0, 0.0, 2.0)


class OracleError(RuntimeError):
    """The oracle's own consistency check failed."""


def _logit_map(lo: float, hi: float):
    width = hi - lo

    def to_box(u):
        return lo + width / (1.0 + math.exp(-u))

    return to_box


def _v_range(box) -> tuple[float, float]:
    lo, hi = box.sigma_range
    eps = 1e-12 * (hi - lo)  # the margin SolutionBox.clip_interior keeps
    return (lo + eps) ** 2, (hi - eps) ** 2


class ProfiledObjective:
    """min over sigma^2 of the objective at a fixed (eta, alpha)."""

    def __init__(self, hf, stats, box):
        self._sums = hf.eta_alpha_sums
        self._objective = hf.objective
        self._domain_error = hf.errors.ParameterDomainError
        self.stats = stats
        self.v_lo, self.v_hi = _v_range(box)
        self.calls = 0

    def coefficients(self, eta: float, alpha: float):
        """(C0, C1), or None where eta + alpha^t underflows."""
        s = self.stats
        try:
            y1, y2, r = self._sums(s, eta, alpha)
        except self._domain_error:
            return None
        lg = math.log(alpha)
        c0 = s.z1 + 4.0 * (y1 - y2) + lg * lg * s.z2 - 2.0 * lg * (s.z3 - 2.0 * r)
        c1 = s.z3 - 2.0 * r - lg * s.z2
        return c0, c1

    def g(self, v: float, c0: float, c1: float) -> float:
        n = self.stats.n_transitions
        return 0.5 * n * math.log(v) + c0 / (2.0 * v) + 0.5 * c1 + self.stats.z2 * v / 8.0

    def v_star(self, c0: float) -> float:
        n, z2 = self.stats.n_transitions, self.stats.z2
        v = 2.0 * (math.sqrt(n * n + z2 * c0) - n) / z2
        return min(max(v, self.v_lo), self.v_hi)

    def __call__(self, eta: float, alpha: float) -> float:
        self.calls += 1
        coef = self.coefficients(eta, alpha)
        if coef is None:
            return math.inf
        return self.g(self.v_star(coef[0]), *coef)

    def self_check(self, points) -> float:
        """Compare the closed form with the library and a 1-d minimiser.

        At each (eta, alpha), g(v*) must equal objective(v*) and no
        bounded scalar minimisation over v may beat it.  Returns the
        largest discrepancy in nats.
        """
        worst = 0.0
        for eta, alpha in points:
            coef = self.coefficients(eta, alpha)
            if coef is None:
                raise OracleError(f"self-check point eta={eta}, alpha={alpha} underflows")
            c0, c1 = coef
            v = self.v_star(c0)
            closed = self.g(v, c0, c1)
            library = self._objective(self.stats, eta, alpha, v)
            numeric = minimize_scalar(
                lambda w: self._objective(self.stats, eta, alpha, w),
                bounds=(self.v_lo, self.v_hi),
                method="bounded",
                options={"xatol": 1e-14 * self.v_hi},
            )
            scale = max(1.0, abs(closed))
            if abs(closed - library) > 1e-9 * scale or numeric.fun < closed - 1e-9 * scale:
                raise OracleError(
                    f"profile mismatch at eta={eta}, alpha={alpha}: closed {closed}, "
                    f"objective {library}, 1-d minimiser {numeric.fun}"
                )
            worst = max(worst, abs(closed - library), max(closed - numeric.fun, 0.0))
        return worst


def profiled_optimum(hf, stats, box) -> dict:
    """Global minimum of the profiled objective over the (eta, alpha) box.

    Nelder-Mead runs in logit coordinates from a 3x3 grid of starts; the
    best end point is polished by one more run.  Returns the value, the
    argmin (eta, alpha, sigma), the number of profile evaluations and the
    self-check discrepancy.
    """
    prof = ProfiledObjective(hf, stats, box)
    to_eta = _logit_map(*box.eta_range)
    to_alpha = _logit_map(*box.alpha_range)

    def f(u):
        if not np.all(np.abs(u) < 700.0):
            return math.inf
        return prof(to_eta(u[0]), to_alpha(u[1]))

    opts = {"xatol": 1e-10, "fatol": 1e-10, "maxiter": 4000}
    best = None
    for a in _GRID:
        for b in _GRID:
            res = minimize(f, np.array([a, b]), method="Nelder-Mead", options=opts)
            if math.isfinite(res.fun) and (best is None or res.fun < best.fun):
                best = res
    if best is None:
        raise OracleError("profiled objective infeasible at every start")
    best = minimize(f, best.x, method="Nelder-Mead", options=opts)
    eta, alpha = to_eta(best.x[0]), to_alpha(best.x[1])

    check_points = [(eta, alpha)] + [
        (to_eta(a), to_alpha(b)) for a, b in ((-1.0, 1.0), (1.0, -1.0))
    ]
    discrepancy = prof.self_check(check_points)
    c0, _ = prof.coefficients(eta, alpha)
    return {
        "value": float(best.fun),
        "theta": (eta, alpha, math.sqrt(prof.v_star(c0))),
        "evals": prof.calls,
        "self_check_nats": discrepancy,
    }
