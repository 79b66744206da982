"""The three workloads: inputs, one op, and the checks on an op's output.

Every workload cycles over a fixed list of seeds that make nearly the same
number of evaluations (these vary from 115k to 332k per op across seeds),
so each op does the same search work; the benchmark's --seed only sets
the order of the visits.  The library sees nothing but the generated
panels and CLI arguments.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hubbertfit as hf
from hubbertfit import cli

# ROADMAP reference protocol: eta, alpha, sigma, x0 of the simulated process.
PROCESS = hf.ProcessParams(
    eta=0.1, alpha=0.45, sigma=0.05, init=hf.InitialDistribution.degenerate(100.0)
)
N_PATHS = 50
CLI_HORIZON = (2015, 2100)
# The stored fit uses SA chains of 10 instead of 50 steps, so that set-up
# takes about a second and can be repeated for a median.
CLI_FIT_CONFIG = {"sa": {"chain_length": 10}}
CLI_TIMEOUT_S = 120


@dataclass
class FitCase:
    """One fit with its peak and forecast requests, plus what the oracle finds."""

    label: str
    panel: hf.PanelData
    urr: float | None
    seed: int
    peak_at: tuple | None  # (y, s) for a conditional peak, else None
    s: float
    x_s: float
    horizon: np.ndarray
    oracle: float = math.nan
    pair_reuse: float = math.nan  # transitions / unique (t_{j-1}, t_j) pairs

    def stats_and_box(self):
        """Sufficient statistics and search box of the shifted panel, as fit builds them."""
        shifted = self.panel.shifted(self.panel.t_first)
        return hf.SufficientStats.from_panel(shifted), hf.build_box(shifted, urr=self.urr)


@dataclass
class Item:
    """The inputs of one op."""

    label: str
    cases: list
    argv: list = field(default_factory=list)  # cli-forecast only
    fit_path: Path | None = None  # cli-forecast only


def reference_panel(seed: int) -> hf.PanelData:
    """50 paths observed at the 51 integer times 0..50."""
    return hf.simulate_paths(PROCESS, hf.PathGrid(np.arange(0.0, 51.0)), N_PATHS, seed)


def _panel_case(label: str, panel: hf.PanelData, seed: int) -> FitCase:
    s = float(panel.times[0][-1])
    return FitCase(label, panel, None, seed, None, s, float(panel.values[0][-1]), s + np.arange(1.0, 11.0))


def _oil_case(label: str, panel: hf.PanelData, urr: float, seed: int) -> FitCase:
    s, y = float(panel.times[0][-1]), float(panel.values[0][-1])
    return FitCase(label, panel, urr, seed, (y, s), s, y, np.arange(s + 1.0, 2041.0))


class Workload:
    name = ""
    seeds: tuple = ()

    def build(self, out_dir: Path) -> list:
        """The op inputs, one Item per seed (the timed part of set-up)."""
        raise NotImplementedError

    def fit_cases(self, items) -> list:
        """Every fit the oracle must score, in a stable order."""
        return [c for item in items for c in item.cases]

    def op(self, item: Item, tracer=None):
        """One unit of user work; returns what check() inspects."""
        out = []
        for c in item.cases:
            fit = hf.fit(c.panel, urr=c.urr, seed=c.seed)
            peak = hf.estimate_peak(fit) if c.peak_at is None else hf.estimate_peak(fit, *c.peak_at)
            out.append((fit, peak, hf.forecast(fit, c.s, c.x_s, c.horizon)))
        return out

    def fits(self, item: Item, output) -> list:
        """(case, objective value, theta_hat) of every fit in one op's output."""
        return [(c, fit.objective_value, fit.theta_hat) for c, (fit, _, _) in zip(item.cases, output)]

    def check(self, item: Item, output) -> list:
        """Problems found in one op's output (empty when it is correct)."""
        errors = []
        for c, (fit, peak, fc) in zip(item.cases, output):
            theta = np.asarray(fit.theta_hat)
            if not (np.all(np.isfinite(theta)) and fit.box.contains(theta)):
                errors.append(f"{c.label}: theta_hat {fit.theta_hat} not strictly inside the box")
            if not np.all(np.isfinite(fit.cov)):
                errors.append(f"{c.label}: covariance is not finite")
            peak_values = (peak.peak_time, peak.peak_time_se, peak.peak, peak.peak_se)
            if not all(math.isfinite(v) for v in peak_values):
                errors.append(f"{c.label}: peak estimate is not finite: {peak_values}")
            errors += _band_errors(c.label, fc.point, fc.lower, fc.upper, len(c.horizon))
        return errors


def _band_errors(label, point, lower, upper, n_expected) -> list:
    arrays = [np.asarray(a, dtype=float) for a in (point, lower, upper)]
    if any(a.shape != (n_expected,) for a in arrays):
        return [f"{label}: expected {n_expected} forecast points"]
    point, lower, upper = arrays
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return [f"{label}: forecast band is not finite"]
    if not (np.all(lower <= point) and np.all(point <= upper)):
        return [f"{label}: forecast band does not hold lower <= point <= upper"]
    return []


class RefPanel(Workload):
    name = "ref-panel"
    # Seeds 1 and 3 make 154,108 and 154,608 evaluations.  Not seed 2: its
    # fit makes 277k, and the median of a mix would depend on how many ops
    # of each seed a run made.
    seeds = (1, 3)

    def build(self, out_dir):
        return [Item(f"seed{k}", [_panel_case(f"ref seed{k}", reference_panel(k), k)]) for k in self.seeds]


class OilUrr(Workload):
    name = "oil-urr"
    # One seed: the op at seed 2 makes 332k evaluations against 241k at
    # seed 1, so the median of a mix would depend on which seed ran more.
    seeds = (1,)

    def build(self, out_dir):
        norway, kazakhstan = hf.datasets.load_norway(), hf.datasets.load_kazakhstan()
        return [
            Item(
                f"seed{k}",
                [
                    _oil_case(f"norway seed{k}", norway, hf.datasets.NORWAY_URR, k),
                    _oil_case(f"kazakhstan seed{k}", kazakhstan, hf.datasets.KAZAKHSTAN_URR, k),
                ],
            )
            for k in self.seeds
        ]


class CliForecast(Workload):
    """`python -m hubbertfit.cli forecast` over 2015-2100 from a stored Norway fit.

    Set-up writes the fit JSON with the `fit` subcommand (CLI_FIT_CONFIG,
    seed 1).  The fit is scored by the oracle, so objective_gap is the gap
    of the fit the forecasts are read from.  A traced op runs the command
    through cli_child.py, which wraps the library inside the child.
    """

    name = "cli-forecast"
    seeds = (1,)

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def build(self, out_dir):
        norway = hf.datasets.load_norway()
        fit_path = out_dir / "cli-forecast-fit.json"
        config = out_dir / "cli-forecast-config.json"
        config.write_text(json.dumps(CLI_FIT_CONFIG))
        seed = self.seeds[0]
        argv = ["fit", "--data", "norway", "--config", str(config), "--urr", repr(hf.datasets.NORWAY_URR),
                "--seed", str(seed), "--out", str(fit_path)]
        if cli.main(argv) != 0:
            raise RuntimeError("hubbertfit fit failed during set-up")
        s, y = float(norway.times[0][-1]), float(norway.values[0][-1])
        case = _oil_case(f"norway fit seed{seed}", norway, hf.datasets.NORWAY_URR, seed)
        forecast = ["forecast", "--fit", str(fit_path), "--s", repr(s), "--x-s", repr(y),
                    "--from", str(CLI_HORIZON[0]), "--to", str(CLI_HORIZON[1])]
        return [Item(f"seed{seed}", [case], forecast, fit_path)]

    def op(self, item, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "hubbertfit.cli", *item.argv]
        else:
            spans = item.fit_path.with_name("cli-forecast-spans.csv")
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans), *item.argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if tracer is not None and proc.returncode == 0:
            tracer.add_child_spans(spans)
        return proc.returncode, proc.stdout, proc.stderr

    def fits(self, item, output):
        # The op reads a stored fit: that fit is the one scored.
        doc = json.loads(item.fit_path.read_text())
        return [(item.cases[0], doc["objective"], list(doc["theta_hat"].values()))]

    def check(self, item, output):
        code, stdout, stderr = output
        if code != 0:
            return [f"cli exited {code}: {stderr.strip()[-200:]}"]
        rows = list(csv.reader(io.StringIO(stdout)))
        n_expected = CLI_HORIZON[1] - CLI_HORIZON[0] + 1
        if not rows or rows[0] != ["year", "mean", "lower", "upper"] or len(rows) != n_expected + 1:
            return [f"cli printed {len(rows)} CSV rows, expected a header and {n_expected}"]
        try:
            body = np.array(rows[1:], dtype=float)
        except ValueError:
            return ["cli printed a non-numeric forecast row"]
        if not np.array_equal(body[:, 0], np.arange(CLI_HORIZON[0], CLI_HORIZON[1] + 1)):
            return ["cli forecast years are not the requested horizon"]
        return _band_errors("cli", body[:, 1], body[:, 2], body[:, 3], n_expected)


def make(name: str, root: Path) -> Workload:
    workloads = {w.name: w for w in (RefPanel(), OilUrr(), CliForecast(root))}
    if name not in workloads:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(workloads)}")
    return workloads[name]
