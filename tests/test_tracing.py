"""The benchmark's span tracer still sees every layer of a fit.

perfbench/spans.py wraps the library's functions by name; a refactor that
renames one, or stops calling it through its module, would silently drop
spans from `perfbench/run.py --trace 1` runs.  The tracer swaps module
globals for good, so it runs in a child process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
import numpy as np
import hubbertfit as hf
import hubbertfit.cli
from spans import TARGETS, SpanSet, Tracer

tracer = Tracer()
tracer.install()
panel = hf.simulate_paths(
    hf.ProcessParams(eta=0.1, alpha=0.45, sigma=0.05,
                     init=hf.InitialDistribution.degenerate(100.0)),
    hf.PathGrid(np.arange(0.0, 21.0)), 5, 7,
)
fit = hf.fit(panel, seed=1, algorithm=sys.argv[1],
             sa_config=hf.SAConfig(chain_length=10, t_final=50.0, init_probe_count=20))
spans = SpanSet(tracer, 0, tracer.mark())
under_fit = spans.nearest("inference.fit") >= 0
print(json.dumps({
    "labels": [f"{module}.{attr.rsplit('.', 1)[-1]}" for module, attr, _ in TARGETS],
    "registered": tracer.names,
    "fits": int(spans.is_("inference.fit").sum()),
    "objective_calls": int((spans.is_("likelihood.objective") & under_fit).sum()),
    "n_evals": fit.n_evals,
    "cov_spans": int((spans.is_("inference.asymptotic_cov") & under_fit).sum()),
}))
"""


def traced_fit(algorithm):
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, algorithm], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    return json.loads(proc.stdout)


def test_tracer_sees_every_layer_of_a_fit():
    out = traced_fit("vns-sa")
    assert set(out["labels"]) <= set(out["registered"])
    assert out["fits"] == 1
    assert out["objective_calls"] == out["n_evals"] > 0
    assert out["cov_spans"] == 1


def test_tracer_counts_every_objective_call_of_a_profile_fit():
    # the profiled objective calls likelihood.objective through its module
    # global, once per evaluation the fit counts
    out = traced_fit("profile")
    assert out["fits"] == 1
    assert out["objective_calls"] == out["n_evals"] > 0
    assert out["cov_spans"] == 1
