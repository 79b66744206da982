"""Simulated annealing, a hybrid VNS-SA search over a 3-d box, and Nelder-Mead.

Generic over any objective f(theta) -> float; +inf marks an infeasible
point that is never accepted.  The annealer follows the classic recipe:
Metropolis chains of fixed length, geometric cooling, and a stall rule
that stops once the chain's value sequence has been flat for a window.

The variable-neighborhood phase re-runs SA inside boxes of growing size
centered on the incumbent; any strict improvement recenters and restarts
from the smallest neighborhood.

Nelder-Mead is the unconstrained simplex search that fits the profiled
(eta, alpha) objective; the caller maps R^n onto its box.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bounds import SolutionBox
from .errors import InitializationError, ParameterDomainError

__all__ = [
    "SAConfig",
    "VNSConfig",
    "Candidate",
    "SAResult",
    "VNSResult",
    "initial_temperature",
    "metropolis_step",
    "simulated_annealing",
    "vns_neighborhood",
    "vns_sa",
    "multistart",
    "NMResult",
    "nelder_mead",
]

# Proposal half-width at the initial temperature, as a fraction of each
# box width; shrinks proportionally to T/T0 as the system cools.
PROPOSAL_FRACTION = 0.1

# Temperature returned when the probe phase sees no positive increase
# (degenerate, e.g. constant, objectives).
FALLBACK_T0 = 1.0

_MAX_START_TRIES = 1000

# Cap on the VNS local searches (SA runs) after phase 1.
_MAX_LOCAL_SEARCHES = 200

# Nelder-Mead stops once every vertex is within _NM_F_TOLERANCE of the best
# one in f and within _NM_X_TOLERANCE in each coordinate, or after
# _NM_MAX_ITER iterations.  sqrt(eps) is the resolution of a minimizer's
# location: a change of that size moves a smooth f by about eps relative,
# which its rounding cannot tell from noise.
_NM_F_TOLERANCE = 1e-10
_NM_X_TOLERANCE = math.sqrt(sys.float_info.epsilon)
_NM_MAX_ITER = 1000


@dataclass(frozen=True)
class SAConfig:
    p0: float = 0.9
    init_probe_count: int = 100
    gamma: float = 0.95
    chain_length: int = 50
    t_final: float = 0.1
    stall_window: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.p0 < 1.0:
            raise ParameterDomainError(f"p0 must lie in (0, 1), got {self.p0}")
        if not 0.0 < self.gamma < 1.0:
            raise ParameterDomainError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.chain_length < 1 or self.init_probe_count < 2:
            raise ParameterDomainError("chain_length >= 1 and init_probe_count >= 2")
        if not self.t_final > 0.0:
            raise ParameterDomainError(f"t_final must be positive, got {self.t_final}")


@dataclass(frozen=True)
class VNSConfig:
    k_max: int = 5

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ParameterDomainError(f"k_max must be >= 1, got {self.k_max}")


@dataclass(frozen=True)
class Candidate:
    theta: np.ndarray
    value: float


@dataclass
class SAResult:
    best: Candidate
    trace: list
    t_initial: float
    stop_reason: str
    n_evals: int


@dataclass
class NMResult:
    best: Candidate
    stop_reason: str
    n_evals: int


@dataclass
class VNSResult:
    best: Candidate
    phase1: SAResult
    local_searches: list = field(default_factory=list)
    n_evals: int = 0


def _uniform_point(box: SolutionBox, rng: np.random.Generator) -> np.ndarray:
    return box.lower + rng.random(3) * box.widths


def _half_width(box: SolutionBox, scale: float) -> list:
    """Proposal half-width per component at temperature ratio scale = T/T0."""
    return (PROPOSAL_FRACTION * scale * box.widths).tolist()


def _propose(
    theta: np.ndarray,
    interior: list,
    half: list,
    rng: np.random.Generator,
) -> np.ndarray:
    """theta plus a uniform step in [-half, half], clipped to interior.

    half (from _half_width) and interior ([lower, upper] of
    box.interior) hold Python floats per component.  This runs on every
    annealing step, and on three components Python float arithmetic costs
    a fraction of numpy's per-call overhead.  It does the same IEEE
    operations in the same order as
    box.clip_interior(theta + rng.uniform(-1.0, 1.0, 3) * half), whose
    draws are -1.0 + 2.0 * rng.random(3), so the result is bit for bit
    the same.
    """
    u0, u1, u2 = rng.random(3).tolist()
    x0, x1, x2 = theta.tolist()
    h0, h1, h2 = half
    (l0, l1, l2), (g0, g1, g2) = interior
    return np.array(
        (
            min(max(x0 + (-1.0 + 2.0 * u0) * h0, l0), g0),
            min(max(x1 + (-1.0 + 2.0 * u1) * h1, l1), g1),
            min(max(x2 + (-1.0 + 2.0 * u2) * h2, l2), g2),
        )
    )


def initial_temperature(
    objective,
    box: SolutionBox,
    probe_count: int,
    p0: float,
    rng: np.random.Generator,
) -> float:
    """T0 = -mean(positive increases)/ln(p0) over random probe moves.

    Each probe is a uniform point paired with a neighbor drawn at the
    full proposal scale; infeasible pairs are skipped.  With no positive
    increase among the probes a documented fallback of 1.0 is returned.
    """
    increases = []
    feasible_seen = False
    interior = [b.tolist() for b in box.interior]
    half = _half_width(box, 1.0)
    for _ in range(probe_count):
        theta = _uniform_point(box, rng)
        neighbor = _propose(theta, interior, half, rng)
        f0, f1 = objective(theta), objective(neighbor)
        if math.isfinite(f0) or math.isfinite(f1):
            feasible_seen = True
        if math.isfinite(f0) and math.isfinite(f1) and f1 > f0:
            increases.append(f1 - f0)
    if not feasible_seen:
        raise InitializationError(
            "objective was infeasible at every probe point in the box"
        )
    if not increases:
        return FALLBACK_T0
    return -float(np.mean(increases)) / math.log(p0)


def metropolis_step(
    current: Candidate,
    proposal: Candidate,
    temperature: float,
    rng: np.random.Generator,
) -> Candidate:
    """Accept the proposal if it improves; else with probability exp(-delta/T)."""
    delta = proposal.value - current.value
    if delta <= 0.0:
        return proposal
    accept_p = math.exp(-delta / temperature) if math.isfinite(delta) else 0.0
    if rng.random() < accept_p:
        return proposal
    return current


def _feasible_start(objective, box, rng) -> Candidate:
    for _ in range(_MAX_START_TRIES):
        theta = _uniform_point(box, rng)
        value = objective(theta)
        if math.isfinite(value):
            return Candidate(theta, value)
    raise InitializationError("could not draw a feasible starting point in the box")


def simulated_annealing(
    objective,
    box: SolutionBox,
    config: SAConfig = SAConfig(),
    seed=None,
    start=None,
) -> SAResult:
    """Anneal from a uniform random start inside the box.

    Runs Metropolis chains of config.chain_length at each temperature,
    cooling geometrically by config.gamma, until the temperature reaches
    config.t_final or the last config.stall_window chain values are all
    equal.  Returns the best-ever candidate with a per-temperature trace.

    seed may be an int, a SeedSequence, or a Generator.  start overrides
    the random initial point (used by the VNS local search, which starts
    each chain from the incumbent).
    """
    rng = np.random.default_rng(seed)
    t0 = initial_temperature(objective, box, config.init_probe_count, config.p0, rng)
    n_evals = 2 * config.init_probe_count

    if start is not None:
        theta0 = box.clip_interior(start)
        current = Candidate(theta0, objective(theta0))
        if not math.isfinite(current.value):
            current = _feasible_start(objective, box, rng)
    else:
        current = _feasible_start(objective, box, rng)
    n_evals += 1
    best = current
    trace = []
    recent = [current.value]
    temperature = t0
    stop_reason = "temperature"
    interior = [b.tolist() for b in box.interior]

    while True:
        accepted = 0
        half = _half_width(box, temperature / t0)
        for _ in range(config.chain_length):
            theta = _propose(current.theta, interior, half, rng)
            proposal = Candidate(theta, objective(theta))
            n_evals += 1
            nxt = metropolis_step(current, proposal, temperature, rng)
            if nxt is proposal:
                accepted += 1
            current = nxt
            if current.value < best.value:
                best = current
            recent.append(current.value)
        del recent[: -config.stall_window]
        trace.append(
            {
                "temperature": temperature,
                "current": current.value,
                "best": best.value,
                "accepted": accepted,
            }
        )
        if (
            len(recent) >= config.stall_window
            and max(recent) - min(recent) <= 0.0
        ):
            stop_reason = "stall"
            break
        if temperature <= config.t_final:
            break
        temperature *= config.gamma

    return SAResult(best=best, trace=trace, t_initial=t0, stop_reason=stop_reason, n_evals=n_evals)


def vns_neighborhood(
    theta0,
    k: int,
    config: VNSConfig,
    box: SolutionBox,
) -> SolutionBox:
    """The k-th neighborhood box around theta0.

    Component increments split the distance from theta0 to each box edge
    into k_max parts, so the k-th neighborhood is the box shrunk by a
    factor k/k_max toward theta0; at k = k_max it is the full box.
    """
    if not 1 <= k <= config.k_max:
        raise ParameterDomainError(f"k must lie in [1, {config.k_max}], got {k}")
    theta0 = np.asarray(theta0, dtype=float)
    if not box.contains(theta0):
        raise ParameterDomainError("theta0 must lie strictly inside the box")
    frac = k / config.k_max
    lo = theta0 - frac * (theta0 - box.lower)
    hi = theta0 + frac * (box.upper - theta0)
    return SolutionBox(
        eta_range=(float(lo[0]), float(hi[0])),
        alpha_range=(float(lo[1]), float(hi[1])),
        sigma_range=(float(lo[2]), float(hi[2])),
    )


def vns_sa(
    objective,
    box: SolutionBox,
    sa_config: SAConfig = SAConfig(),
    vns_config: VNSConfig = VNSConfig(),
    seed=None,
) -> VNSResult:
    """Hybrid search: SA on the full box, then SA as the local search of VNS.

    Phase 1 anneals over the whole box.  Phase 2 loops k = 1..k_max over
    neighborhoods of the incumbent; a strict improvement recenters the
    neighborhoods and resets k = 1.  The incumbent can only improve, so
    the result is never worse than the phase-1 answer.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = iter(seq.spawn(_MAX_LOCAL_SEARCHES + 1))

    phase1 = simulated_annealing(objective, box, sa_config, next(streams))
    incumbent = phase1.best
    n_evals = phase1.n_evals
    searches = []

    k = 1
    while k <= vns_config.k_max and len(searches) < _MAX_LOCAL_SEARCHES:
        sub_box = vns_neighborhood(incumbent.theta, k, vns_config, box)
        result = simulated_annealing(
            objective, sub_box, sa_config, next(streams), start=incumbent.theta
        )
        n_evals += result.n_evals
        searches.append({"k": k, "value": result.best.value})
        if result.best.value < incumbent.value:
            incumbent = result.best
            k = 1
        else:
            k += 1

    return VNSResult(best=incumbent, phase1=phase1, local_searches=searches, n_evals=n_evals)


def multistart(
    objective,
    box: SolutionBox,
    sa_config: SAConfig = SAConfig(),
    vns_config: VNSConfig = VNSConfig(),
    seed=None,
    n_restarts: int = 1,
    algorithm: str = "vns-sa",
):
    """Best result over independent restarts with seed-derived substreams.

    Deterministic for a fixed seed; restarts run sequentially but use
    disjoint substreams, so the answer would not change under a parallel
    schedule.
    """
    if n_restarts < 1:
        raise ParameterDomainError(f"n_restarts must be >= 1, got {n_restarts}")
    if algorithm not in ("sa", "vns-sa"):
        raise ParameterDomainError(f"unknown algorithm {algorithm!r}")
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    results = []
    for stream in seq.spawn(n_restarts):
        if algorithm == "sa":
            results.append(simulated_annealing(objective, box, sa_config, stream))
        else:
            results.append(vns_sa(objective, box, sa_config, vns_config, stream))
    return min(results, key=lambda r: r.best.value)


def _affine(base, c, step):
    """base + c * step, per coordinate of two float tuples."""
    return tuple([b + c * s for b, s in zip(base, step)])


def nelder_mead(f, x0) -> NMResult:
    """Minimize f over R^n by the Nelder-Mead simplex search.

    Standard coefficients: reflection 1, expansion 2, contraction 1/2 and
    shrink 1/2 (Nelder and Mead, Comput. J. 1965, in the form of Lagarias
    et al., SIAM J. Optim. 1998).  The first simplex is x0 and x0 plus a
    unit step along each axis.  stop_reason is "converged" when the
    simplex spans at most 1e-10 in f and at most sqrt(eps) ~ 1.5e-8 in
    every coordinate (the resolution below which rounding in f, not f
    itself, orders the vertices; Press et al., Numerical Recipes, 10.1),
    else "max_iter" after 1000 iterations.  Deterministic; f may return
    +inf, never NaN.

    Points are tuples of Python floats, and f is called with one; on the
    2-d profile search, numpy's per-call cost on 2-element arrays would
    outweigh the arithmetic.  Each coordinate is computed by the same IEEE
    operations, in the same order, as the numpy-vector form of the
    algorithm, so the trajectory is the same.  best.theta is a tuple.
    """
    x0 = tuple(float(v) for v in x0)
    n = len(x0)
    simplex = [x0, *(tuple(v + (1.0 if j == i else 0.0) for j, v in enumerate(x0)) for i in range(n))]
    values = [f(x) for x in simplex]
    n_evals = len(simplex)
    stop_reason = "max_iter"
    for _ in range(_NM_MAX_ITER):
        order = sorted(range(len(values)), key=values.__getitem__)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best, worst = simplex[0], simplex[-1]
        if values[-1] - values[0] <= _NM_F_TOLERANCE and all(
            abs(v - b) <= _NM_X_TOLERANCE for x in simplex[1:] for v, b in zip(x, best)
        ):
            stop_reason = "converged"
            break
        centroid = []
        for coords in zip(*simplex[:-1]):
            # 0 + x_1 + ... + x_n, left to right, as the vector sum() does
            total = 0.0
            for v in coords:
                total += v
            centroid.append(total / n)
        step = tuple(c - w for c, w in zip(centroid, worst))
        reflected = _affine(centroid, 1.0, step)
        f_r = f(reflected)
        n_evals += 1
        if f_r < values[0]:
            expanded = _affine(centroid, 2.0, step)
            f_e = f(expanded)
            n_evals += 1
            simplex[-1], values[-1] = (expanded, f_e) if f_e < f_r else (reflected, f_r)
            continue
        if f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
            continue
        outside = f_r < values[-1]
        contracted = _affine(centroid, 0.5 if outside else -0.5, step)
        f_c = f(contracted)
        n_evals += 1
        if (f_c <= f_r) if outside else (f_c < values[-1]):
            simplex[-1], values[-1] = contracted, f_c
            continue
        simplex = [best, *(tuple([b + 0.5 * (v - b) for v, b in zip(x, best)]) for x in simplex[1:])]
        values = [values[0], *(f(x) for x in simplex[1:])]
        n_evals += len(simplex) - 1
    i = min(range(len(values)), key=values.__getitem__)
    return NMResult(best=Candidate(simplex[i], values[i]), stop_reason=stop_reason, n_evals=n_evals)
