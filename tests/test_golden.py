"""Pinned seeded outputs.

The other determinism tests compare one run with another run of the same
code, so they cannot see a change that moves every run alike.  These
values were recorded from the library before its annealing hot path was
rewritten; any edit to the likelihood kernel, the objective closure or
the SA step must reproduce them bit for bit (values are compared through
repr of Python floats).
"""

import numpy as np

import hubbertfit as hf
from hubbertfit.datasets import NORWAY_URR, load_norway

SPHERE_CENTER = np.array([0.12, 0.5, 0.04])


def test_norway_short_chain_fit_is_pinned():
    fit = hf.fit(load_norway(), urr=NORWAY_URR, sa_config=hf.SAConfig(chain_length=10), seed=1)
    assert repr(tuple(float(v) for v in fit.theta_hat)) == (
        "(0.050353565125698586, 0.8724000018221914, 0.06233293014781471)"
    )
    assert repr(float(fit.objective_value)) == "-78.28548364784703"
    assert fit.n_evals == 23556
    assert fit.stop_reason == "stall"


def test_sphere_annealing_is_pinned():
    def sphere(theta):
        return float(np.sum((np.asarray(theta) - SPHERE_CENTER) ** 2))

    result = hf.simulated_annealing(sphere, hf.SolutionBox(), seed=5)
    assert repr(float(result.best.value)) == "0.0015574940663550193"
    assert result.n_evals == 1251
    assert repr(float(result.t_initial)) == "0.26973570733005336"
