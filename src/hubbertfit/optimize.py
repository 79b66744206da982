"""Simulated annealing and a hybrid VNS-SA search over a 3-d box.

Generic over any objective f(theta) -> float; +inf marks an infeasible
point that is never accepted.  The annealer follows the classic recipe:
Metropolis chains of fixed length, geometric cooling, and a stall rule
that stops once the chain's value sequence has been flat for a window.

The variable-neighborhood phase re-runs SA inside boxes of growing size
centered on the incumbent; any strict improvement recenters and restarts
from the smallest neighborhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import SolutionBox
from .errors import InitializationError, ParameterDomainError, _check_count, _check_positive, _check_unit_interval

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


@dataclass(frozen=True)
class SAConfig:
    p0: float = 0.9
    init_probe_count: int = 100
    gamma: float = 0.95
    chain_length: int = 50
    t_final: float = 0.1
    stall_window: int = 50

    def __post_init__(self) -> None:
        _check_unit_interval("p0", self.p0)
        _check_unit_interval("gamma", self.gamma)
        for name, minimum in (("chain_length", 1), ("init_probe_count", 2), ("stall_window", 1)):
            _check_count(name, getattr(self, name), minimum)
        _check_positive("t_final", self.t_final)


@dataclass(frozen=True)
class VNSConfig:
    k_max: int = 5

    def __post_init__(self) -> None:
        _check_count("k_max", self.k_max, 1)


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


def _feasible_start(objective, box, rng) -> tuple[Candidate, int]:
    """The first feasible uniform draw, and the number of draws it took."""
    for n_draws in range(1, _MAX_START_TRIES + 1):
        theta = _uniform_point(box, rng)
        value = objective(theta)
        if math.isfinite(value):
            return Candidate(theta, value), n_draws
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
        n_evals += 1
    if start is None or not math.isfinite(current.value):
        current, n_draws = _feasible_start(objective, box, rng)
        n_evals += n_draws
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

    The result is the winning restart's, except that its n_evals is the
    total over all restarts.  Deterministic for a fixed seed; restarts run
    sequentially but use disjoint substreams, so the answer would not
    change under a parallel schedule.
    """
    _check_count("n_restarts", n_restarts, 1)
    if algorithm not in ("sa", "vns-sa"):
        raise ParameterDomainError(f"unknown algorithm {algorithm!r}")
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    results = []
    for stream in seq.spawn(n_restarts):
        if algorithm == "sa":
            results.append(simulated_annealing(objective, box, sa_config, stream))
        else:
            results.append(vns_sa(objective, box, sa_config, vns_config, stream))
    return replace(min(results, key=lambda r: r.best.value), n_evals=sum(r.n_evals for r in results))
