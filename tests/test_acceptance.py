"""Acceptance suite: one gating test per criterion, each printing a
single [PASS]/[FAIL] line (visible with pytest -s or in failure output).

Criterion 3 runs 60 full hybrid fits and dominates the runtime (several
minutes on one CPU); everything else completes in seconds.
"""

import csv
import math
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

import hubbertfit as hf
from hubbertfit import inference
from hubbertfit.cli import main
from hubbertfit.likelihood import SufficientStats
from hubbertfit.optimize import Candidate

DATA = Path(__file__).parent / "data"


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_alpha_bound_grid():
    with open(DATA / "alpha_bounds_table.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 152  # 19 alpha rows x 8 eta columns
    worst = 0.0
    for row in rows:
        eta, alpha = float(row["eta"]), float(row["alpha"])
        p = hf.CurveParams(eta=eta, alpha=alpha, x0=100.0, t0=0.0)
        u = hf.urr(p)
        c = eta * u * (1.0 - alpha**50.0) / ((eta + 1.0) * (eta + alpha**50.0))
        worst = max(
            worst,
            abs(hf.alpha1(100.0, u) - float(row["alpha1"])),
            abs(hf.alpha2(c, u, 0.0, 50.0) - float(row["alpha2"])),
        )
    report(1, "alpha bound grid within 1e-4", worst <= 1e-4, f"worst abs err {worst:.2e}")


def test_criterion_2_likelihood_oracle_equivalence():
    rng = np.random.default_rng(20)
    worst = 0.0
    for trial in range(30):
        eta = rng.uniform(0.02, 0.25)
        alpha = rng.uniform(0.2, 0.9)
        sigma = rng.uniform(0.02, 0.09)
        n_paths = int(rng.integers(1, 6))
        init = (
            hf.InitialDistribution(math.log(100.0), 0.01)
            if n_paths > 1
            else hf.InitialDistribution.degenerate(100.0)
        )
        p = hf.ProcessParams(eta=eta, alpha=alpha, sigma=sigma, init=init)
        grid = hf.PathGrid(np.concatenate([[0.0], np.sort(rng.uniform(0.5, 30.0, 11))]))
        panel = hf.simulate_paths(p, grid, n_paths, int(rng.integers(1 << 30)))
        mu1, s1 = hf.initial_mle(panel)
        closed = hf.log_likelihood(panel, mu1, s1, eta, alpha, sigma**2)
        brute = 0.0
        for t, v in zip(panel.times, panel.values):
            for j in range(1, len(t)):
                brute += hf.transition_logpdf(v[j], t[j], v[j - 1], t[j - 1], p)
        if s1 > 0.0:
            lx = np.log(panel.initial_values())
            brute += float(
                np.sum(-lx - 0.5 * np.log(2 * np.pi * s1) - (lx - mu1) ** 2 / (2 * s1))
            )
        worst = max(worst, abs(closed - brute))
    report(2, "closed-form likelihood equals brute force", worst <= 1e-9,
           f"worst abs diff {worst:.2e}")


def test_criterion_3_simulation_study_reproduction():
    grid = hf.PathGrid(np.arange(0.0, 51.0))
    failures = []
    for i_eta, eta in enumerate((0.05, 0.1, 0.2)):
        for i_alpha, alpha in enumerate((0.25, 0.55)):
            estimates = []
            for rep in range(10):
                seed = 10_000 + 1_000 * (2 * i_eta + i_alpha) + rep
                p = hf.ProcessParams(
                    eta=eta, alpha=alpha, sigma=0.05,
                    init=hf.InitialDistribution.degenerate(100.0),
                )
                panel = hf.simulate_paths(p, grid, 50, seed)
                stats = SufficientStats.from_panel(panel)
                box = hf.build_box(panel)

                def objective(theta):
                    return hf.objective(stats, theta[0], theta[1], theta[2] ** 2)

                res = hf.vns_sa(objective, box, seed=seed)
                theta_hat = res.best.theta
                estimates.append(theta_hat)
                if res.best.value > res.phase1.best.value + 1e-12:
                    failures.append(f"hybrid worse than phase 1 at ({eta},{alpha}) rep {rep}")
                mu1, s1 = hf.initial_mle(panel)
                ll_hat = hf.log_likelihood(
                    stats, mu1, s1, theta_hat[0], theta_hat[1], theta_hat[2] ** 2
                )
                ll_true = hf.log_likelihood(stats, mu1, s1, eta, alpha, 0.05**2)
                rel = abs(ll_hat - ll_true) / abs(ll_true)
                if rel > 1e-2:
                    failures.append(f"relLL {rel:.1e} at ({eta},{alpha}) rep {rep}")
            mean = np.mean(estimates, axis=0)
            if abs(mean[0] - eta) > 0.005:
                failures.append(f"eta mean {mean[0]:.4f} at ({eta},{alpha})")
            if abs(mean[1] - alpha) > 0.005:
                failures.append(f"alpha mean {mean[1]:.4f} at ({eta},{alpha})")
            if abs(mean[2] - 0.05) > 0.003:
                failures.append(f"sigma mean {mean[2]:.4f} at ({eta},{alpha})")
    report(3, "simulation-study parameter recovery", not failures, "; ".join(failures))


def load_forecast_rows(series):
    with open(DATA / "forecast_tables.csv", newline="") as handle:
        return [
            (float(r["year"]), float(r["mean"]))
            for r in csv.DictReader(handle)
            if r["series"] == series
        ]


def published_fit(eta, alpha, sigma, k):
    return inference.FitResult(
        theta_hat=(eta, alpha, sigma), mu1_hat=0.0, sigma1_sq_hat=0.0,
        objective_value=0.0, log_likelihood=0.0, fisher=np.eye(3),
        cov=np.zeros((3, 3)), time_shift_k=k,
        n_obs=0, d=1, box=hf.SolutionBox(),
    )


def test_criterion_4_published_parameter_forecasts():
    worst = 0.0
    for series, (eta, alpha, sigma, k), (s, x_s) in [
        ("norway_scen1", (0.0407, 0.8638, 0.0634, 1980.0), (2014.0, 1568.0)),
        ("kazakhstan", (0.0563, 0.9173, 0.0646, 1992.0), (2014.0, 1632.0)),
    ]:
        rows = load_forecast_rows(series)
        fc = hf.forecast(published_fit(eta, alpha, sigma, k), s, x_s,
                         [y for y, _ in rows])
        rel = np.abs(fc.point - np.array([m for _, m in rows])) / np.array(
            [m for _, m in rows]
        )
        worst = max(worst, float(rel.max()))
    report(4, "published-parameter forecast means within 0.1%", worst <= 1e-3,
           f"worst rel err {worst:.2e}")


def test_criterion_5_peak_algebra():
    checks = []
    est = hf.estimate_peak(published_fit(0.0393, 0.8607, 0.0731, 1980.0),
                           y=3019.0, s=1999.0)
    checks.append(abs(est.peak - 3133.323) / 3133.323 <= 5e-4)
    checks.append(abs(est.peak_time - 2001.579) <= 0.02)
    est2 = hf.estimate_peak(published_fit(0.0563, 0.9173, 0.0646, 1992.0),
                            y=1632.0, s=2014.0)
    checks.append(abs(est2.peak_time - 2025.413) <= 0.1)
    checks.append(abs(est2.peak - 2058.396) / 2058.396 <= 5e-3)
    report(5, "peak time and peak value algebra", all(checks), f"checks {checks}")


def _local_mle(panel):
    stats = SufficientStats.from_panel(panel)

    def objective(v):
        eta, alpha, sigma = v
        if not (0.0 < eta and 0.0 < alpha < 1.0 and 0.0 < sigma):
            return 1e12
        return hf.objective(stats, eta, alpha, sigma**2)

    res = minimize(objective, x0=[0.1, 0.45, 0.05], method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000})
    return res.x, stats


def test_criterion_6_fisher_and_delta_validation():
    issues = []
    grid = hf.PathGrid(np.arange(0.0, 51.0))
    p = hf.ProcessParams(
        eta=0.1, alpha=0.45, sigma=0.05, init=hf.InitialDistribution.degenerate(100.0)
    )
    # symmetry and positive definiteness at local MLEs
    for seed in (0, 1, 2):
        panel = hf.simulate_paths(p, grid, 50, seed)
        theta, stats = _local_mle(panel)
        info = hf.fisher_information(theta, stats)
        if not np.allclose(info, info.T):
            issues.append("asymmetric information")
        if not np.all(np.linalg.eigvalsh(info) > 0.0):
            issues.append("information not positive definite")

    # analytic gradients against central differences, 1e-6 relative
    def fd(f, x, h=1e-7):
        out = []
        for i in range(len(x)):
            xp, xm = list(x), list(x)
            xp[i] += h * abs(x[i])
            xm[i] -= h * abs(x[i])
            out.append((f(xp) - f(xm)) / (2.0 * h * abs(x[i])))
        return np.array(out)

    eta0, alpha0 = 0.0407, 0.8638
    pairs = [
        (inference.peak_time_gradient(eta0, alpha0)[:2],
         fd(lambda v: math.log(v[0]) / math.log(v[1]), [eta0, alpha0])),
        (inference.peak_gradient(eta0, alpha0, 3019.0, 19.0)[:2],
         fd(lambda v: 3019.0 * (v[0] + v[1] ** 19.0) ** 2 / (4 * v[0] * v[1] ** 19.0),
            [eta0, alpha0])),
        (inference.conditional_mean_gradient(eta0, alpha0, 1568.0, 34.0, 40.0)[:2],
         fd(lambda v: hf.conditional_mean(40.0, 1568.0, 34.0, v[0], v[1]),
            [eta0, alpha0])),
    ]
    for analytic, numeric in pairs:
        if not np.allclose(analytic, numeric, rtol=1e-6):
            issues.append(f"gradient mismatch {analytic} vs {numeric}")

    # calibration: Fisher standard error of eta within 2x of replication SD
    etas = []
    ses = []
    for seed in range(50):
        panel = hf.simulate_paths(p, grid, 50, 5_000 + seed)
        theta, stats = _local_mle(panel)
        etas.append(theta[0])
        cov = np.linalg.inv(hf.fisher_information(theta, stats))
        ses.append(math.sqrt(cov[0, 0]))
    ratio = float(np.mean(ses)) / float(np.std(etas, ddof=1))
    if not 0.5 <= ratio <= 2.0:
        issues.append(f"eta SE calibration ratio {ratio:.2f}")

    # informational, non-gating: published per-table errors depend on the
    # exact data vintage, so only the calibration ratio gates here
    print(f"[INFO] criterion 6: eta SE calibration ratio {ratio:.3f}")
    report(6, "Fisher information and delta-method validation", not issues,
           "; ".join(issues))


def test_criterion_7_optimizer_contracts():
    issues = []
    rng = np.random.default_rng(99)
    temperature = 0.8
    cur = Candidate(np.zeros(3), 0.0)
    prop = Candidate(np.ones(3), temperature * math.log(2.0))
    n = 100_000
    acc = sum(hf.metropolis_step(cur, prop, temperature, rng) is prop for _ in range(n))
    if abs(acc / n - 0.5) > 0.01:
        issues.append(f"acceptance frequency {acc / n:.4f}")

    center = np.array([0.12, 0.5, 0.04])

    def f(theta):
        return 1e4 * float(np.sum((np.asarray(theta) - center) ** 2))

    res = hf.simulated_annealing(f, hf.SolutionBox(), seed=1)
    bests = [level["best"] for level in res.trace]
    if any(b2 > b1 for b1, b2 in zip(bests, bests[1:])):
        issues.append("best-ever objective increased")

    for seed in range(20):
        out = hf.vns_sa(f, hf.SolutionBox(), seed=seed)
        if out.best.value > out.phase1.best.value + 1e-15:
            issues.append(f"hybrid worse than phase 1 at seed {seed}")
    report(7, "optimizer contracts", not issues, "; ".join(issues))


def test_criterion_8_determinism(tmp_path):
    issues = []
    args = ["simulate", "--eta", "0.1", "--alpha", "0.45", "--sigma", "0.05",
            "--t-final", "20", "--n-paths", "5", "--seed", "4", "--subsample"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    if a.read_bytes() != b.read_bytes():
        issues.append("simulate output not byte-identical")

    from hubbertfit import datasets

    panel = datasets.load_panel_csv(a)
    config = hf.SAConfig(chain_length=10, t_final=50.0, init_probe_count=20)
    f1 = hf.fit(panel, seed=12, algorithm="vns-sa", sa_config=config)
    f2 = hf.fit(panel, seed=12, algorithm="vns-sa", sa_config=config)
    fields = [
        ("theta_hat", f1.theta_hat == f2.theta_hat),
        ("objective", f1.objective_value == f2.objective_value),
        ("log_likelihood", f1.log_likelihood == f2.log_likelihood),
        ("cov", bool(np.array_equal(f1.cov, f2.cov))),
        ("std_errors", f1.std_errors == f2.std_errors),
        ("n_evals", f1.n_evals == f2.n_evals),
        ("stop_reason", f1.stop_reason == f2.stop_reason),
    ]
    issues += [name for name, same in fields if not same]
    report(8, "seeded determinism (byte and field level)", not issues, "; ".join(issues))
