"""Recovering parameters from simulated panels.

Simulates the reference protocol (50 paths observed at 51 integer times)
and minimizes the exact likelihood objective twice: with the default
search (sigma^2 profiled out in closed form, Fisher scoring over eta
and alpha) and with the paper's annealing plus variable-neighborhood
refinement over all three parameters.
"""

import time

import numpy as np

import hubbertfit as hf

TRUE = dict(eta=0.1, alpha=0.45, sigma=0.05)

params = hf.ProcessParams(**TRUE, init=hf.InitialDistribution.degenerate(100.0))
grid = hf.PathGrid(np.arange(0.0, 51.0))
panel = hf.simulate_paths(params, grid, n_paths=50, seed=2024)

start = time.time()
fit = hf.fit(panel, seed=2024)
elapsed = time.time() - start

eta, alpha, sigma = fit.theta_hat
print(f"true    : eta={TRUE['eta']:.4f}  alpha={TRUE['alpha']:.4f}  sigma={TRUE['sigma']:.4f}")
print(f"estimate: eta={eta:.4f}  alpha={alpha:.4f}  sigma={sigma:.4f}")
print(f"std err : eta={fit.std_errors[0]:.5f}  alpha={fit.std_errors[1]:.5f}  "
      f"sigma={fit.std_errors[2]:.5f}")
print(f"objective {fit.objective_value:.4f}  log-likelihood {fit.log_likelihood:.4f}")
print(f"{fit.n_evals} objective evaluations in {1e3 * elapsed:.0f} ms "
      f"(stop: {fit.stop_reason})")

peak = hf.estimate_peak(fit)
print(f"\npeak time {peak.peak_time:.3f} +- {peak.peak_time_se:.3f} "
      f"(true {hf.peak_time(TRUE['eta'], TRUE['alpha']):.3f})")
print(f"peak rate {peak.peak:.2f} +- {peak.peak_se:.2f}")

start = time.time()
paper = hf.fit(panel, seed=2024, algorithm="vns-sa")
elapsed = time.time() - start
print(f"\npaper's VNS-SA: objective {paper.objective_value:.4f} "
      f"({paper.objective_value - fit.objective_value:.4f} above the profile fit), "
      f"{paper.n_evals} evaluations in {elapsed:.1f}s")
