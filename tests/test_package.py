"""The package's imports are its one list of public names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hubbertfit

PUBLIC = [
    "CurveParams", "FitResult", "Forecast", "InitialDistribution", "PanelData", "PathGrid", "PeakEstimate",
    "ProcessParams", "SAConfig", "SolutionBox", "SufficientStats", "VNSConfig", "alpha1", "alpha2",
    "asymptotic_cov", "bounds", "build_box", "conditional_mean", "curve", "datasets", "delta_error", "errors",
    "estimate_peak", "eta_alpha_sums", "finite_dim_params", "fisher_information", "fit", "forecast",
    "hubbert_value", "inference", "inflection_times", "initial_mle", "initial_temperature", "likelihood",
    "log_likelihood", "mean", "metropolis_step", "multistart", "objective", "optimize", "peak_time",
    "peak_value", "process", "shift_parameters", "simulate_paths", "simulated_annealing", "transition_logpdf",
    "urr", "vns_sa",
]


def test_public_names_are_pinned():
    # in a fresh interpreter: importing a submodule such as cli adds its name to the package
    code = "import hubbertfit; print(sorted(n for n in vars(hubbertfit) if not n.startswith('_')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert ast.literal_eval(proc.stdout) == PUBLIC


def test_no_module_keeps_a_second_list():
    for path in Path(hubbertfit.__file__).parent.glob("*.py"):
        targets = [t for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assign)
                   for t in node.targets]
        assert not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets), path.name
