"""Command-line front end: simulate | bounds | fit | forecast.

Outputs are machine-readable: panels and forecasts as CSV, everything
else as JSON stamped with a schema_version and the resolved run
configuration.  Exit status is 0 on success, 1 for domain or optimizer
errors, 2 for I/O and parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import datasets
from . import inference
from . import optimize as opt
from .errors import DataFormatError
from .likelihood import PanelData
from .process import InitialDistribution, PathGrid, ProcessParams, simulate_paths

SCHEMA_VERSION = 1

_DOMAIN_ERRORS = (ValueError, RuntimeError)


def _round_floats(obj, digits):
    if digits is None:
        return obj
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, list):
        return [_round_floats(v, digits) for v in obj]
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    return obj


def _emit_json(doc: dict, out: str | None, digits: int | None) -> None:
    doc = _round_floats(doc, digits)
    text = json.dumps(doc, indent=2, allow_nan=True) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise DataFormatError(f"cannot read config {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise DataFormatError(f"config {path} must be a JSON object")
    return cfg


def _config_block(cfg: dict, block: str, cls, file_keys: dict):
    """cls built from the keys cfg[block] gives; the rest keep cls's defaults.

    file_keys maps a field of cls to its key in the file where the two
    differ.  A key that names no field is a DataFormatError.
    """
    given = cfg.get(block, {})
    if not isinstance(given, dict):
        raise DataFormatError(f"config block {block!r} must be a JSON object")
    fields = {file_keys.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(given) - set(fields))
    if unknown:
        raise DataFormatError(
            f"unknown {block!r} config key(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(fields))}"
        )
    return cls(**{fields[key]: value for key, value in given.items()})


def _resolved(cfg: dict, **overrides) -> dict:
    merged = dict(cfg)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return merged


def _load_data(path: str) -> PanelData:
    builtin = {"norway": datasets.load_norway, "kazakhstan": datasets.load_kazakhstan}
    if path in builtin:
        return builtin[path]()
    return datasets.load_panel_csv(path)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    init = InitialDistribution.degenerate(args.x0)
    params = ProcessParams(
        eta=args.eta, alpha=args.alpha, sigma=args.sigma, init=init, t0=args.t0
    )
    times = args.t0 + args.step * np.arange(round((args.t_final - args.t0) / args.step) + 1)
    panel = simulate_paths(params, PathGrid(times), args.n_paths, args.seed)
    if args.subsample:
        keep = np.isclose(np.mod(panel.times[0] - args.t0, 1.0), 0.0) | np.isclose(
            np.mod(panel.times[0] - args.t0, 1.0), 1.0
        )
        panel = PanelData(
            times=[t[keep] for t in panel.times],
            values=[v[keep] for v in panel.values],
        )
    datasets.write_panel_csv(args.out, panel)
    return 0


def cmd_bounds(args) -> int:
    cfg = _load_config(args.config)
    urr = args.urr if args.urr is not None else cfg.get("urr")
    sigma_cap = cfg.get("sigma_cap", bounds_mod.SIGMA_UPPER_DEFAULT)
    data = _load_data(args.data)
    box = bounds_mod.build_box(data, urr=urr, sigma_cap=sigma_cap)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "eta_upper": box.eta_range[1],
        "alpha_star": box.alpha_range[1],
        "sigma_upper": box.sigma_range[1],
        "fallback": urr is None,
        "config": _resolved(cfg, urr=urr, sigma_cap=sigma_cap),
    }
    if urr is None:
        doc["note"] = "no URR supplied; alpha bounded only by 1"
        doc["alpha1"] = doc["alpha2"] = None
    else:
        x0 = float(np.mean(data.initial_values()))
        c = bounds_mod.cumulative_trapezoid(data)
        doc["alpha1"] = bounds_mod.alpha1(x0, urr)
        doc["alpha2"] = bounds_mod.alpha2(c, urr, data.t_first, data.t_last)
    _emit_json(doc, args.out, args.digits)
    return 0


def _fit_document(fit: inference.FitResult, cfg: dict, peak_args) -> dict:
    eta, alpha, sigma = fit.theta_hat
    peak = inference.estimate_peak(fit)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "theta_hat": {"eta": eta, "alpha": alpha, "sigma": sigma},
        "eta_unshifted": fit.eta_unshifted,
        "time_shift_k": fit.time_shift_k,
        "mu1_hat": fit.mu1_hat,
        "sigma1_sq_hat": fit.sigma1_sq_hat,
        "std_errors": {
            "eta": fit.std_errors[0],
            "alpha": fit.std_errors[1],
            "sigma": fit.std_errors[2],
        },
        "cov": np.asarray(fit.cov).tolist(),
        "objective": fit.objective_value,
        "log_likelihood": fit.log_likelihood,
        "peak": {
            "time": peak.peak_time,
            "time_se": peak.peak_time_se,
            "value": peak.peak,
            "value_se": peak.peak_se,
            "already_passed": peak.peak_passed,
        },
        "box": {
            "eta": list(fit.box.eta_range),
            "alpha": list(fit.box.alpha_range),
            "sigma": list(fit.box.sigma_range),
        },
        "n_obs": fit.n_obs,
        "n_paths": fit.d,
        "algorithm": fit.algorithm,
        "n_restarts": fit.n_restarts,
        "seed": fit.seed,
        "stop_reason": fit.stop_reason,
        "n_evals": fit.n_evals,
        "warnings": fit.warnings,
        "config": cfg,
    }
    if peak_args is not None:
        y, s = peak_args
        conditional = inference.estimate_peak(fit, y=y, s=s)
        doc["peak_conditional"] = {
            "time": conditional.peak_time,
            "time_se": conditional.peak_time_se,
            "value": conditional.peak,
            "value_se": conditional.peak_se,
            "conditioning": {"x_s": y, "s": s},
        }
    return doc


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    urr = args.urr if args.urr is not None else cfg.get("urr")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    restarts = args.restarts if args.restarts is not None else cfg.get("restarts", 1)
    data = _load_data(args.data)
    fit = inference.fit(
        data,
        urr=urr,
        sa_config=_config_block(cfg, "sa", opt.SAConfig, {"init_probe_count": "probe_count"}),
        vns_config=_config_block(cfg, "vns", opt.VNSConfig, {}),
        seed=seed,
        n_restarts=restarts,
        algorithm=args.algorithm,
        sigma_cap=cfg.get("sigma_cap", bounds_mod.SIGMA_UPPER_DEFAULT),
    )
    peak_args = None
    if (args.peak_x is None) != (args.peak_s is None):
        raise DataFormatError("--peak-x and --peak-s must be given together")
    if args.peak_x is not None:
        peak_args = (args.peak_x, args.peak_s)
    resolved = _resolved(cfg, urr=urr, seed=seed, restarts=restarts, algorithm=args.algorithm)
    _emit_json(_fit_document(fit, resolved, peak_args), args.out, args.digits)
    return 0


def cmd_forecast(args) -> int:
    try:
        with open(args.fit) as handle:
            fit_doc = json.load(handle)
    except OSError as exc:
        raise DataFormatError(f"cannot read fit file {args.fit}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"fit file {args.fit} is not valid JSON: {exc}") from None
    try:
        theta = fit_doc["theta_hat"]
        fit = inference.FitResult(
            theta_hat=(theta["eta"], theta["alpha"], theta["sigma"]),
            mu1_hat=fit_doc.get("mu1_hat", 0.0),
            sigma1_sq_hat=fit_doc.get("sigma1_sq_hat", 0.0),
            objective_value=fit_doc.get("objective", math.nan),
            log_likelihood=fit_doc.get("log_likelihood", math.nan),
            fisher=np.empty((0, 0)),
            cov=np.asarray(fit_doc["cov"], dtype=float),
            std_errors=(math.nan,) * 3,
            time_shift_k=fit_doc["time_shift_k"],
            n_obs=fit_doc.get("n_obs", 0),
            d=fit_doc.get("n_paths", 1),
            box=bounds_mod.SolutionBox(),
        )
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"fit file {args.fit} is missing field {exc}") from None
    horizon = np.arange(args.start, args.stop + 0.5 * args.step, args.step)
    result = inference.forecast(fit, args.s, args.x_s, horizon, level=args.level)
    lines = ["year,mean,lower,upper"]
    for t, m, lo, hi in zip(result.times, result.point, result.lower, result.upper):
        row = [t, m, lo, hi]
        if args.digits is not None:
            row = [round(v, args.digits) for v in row]
        lines.append(",".join(repr(float(v)) for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hubbertfit",
        description="Hubbert diffusion process: simulation, bounds, fitting, forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw sample paths to a CSV panel")
    sim.add_argument("--eta", type=float, required=True)
    sim.add_argument("--alpha", type=float, required=True)
    sim.add_argument("--sigma", type=float, required=True)
    sim.add_argument("--x0", type=float, default=100.0)
    sim.add_argument("--t0", type=float, default=0.0)
    sim.add_argument("--t-final", type=float, default=50.0)
    sim.add_argument("--step", type=float, default=0.1)
    sim.add_argument("--n-paths", type=int, default=50)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--subsample", action="store_true",
                     help="keep only integer-offset times (step 1)")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    bnd = sub.add_parser("bounds", help="report the (eta, alpha, sigma) search box")
    bnd.add_argument("--data", required=True,
                     help="panel CSV path, or 'norway' / 'kazakhstan'")
    bnd.add_argument("--config", default=None)
    bnd.add_argument("--urr", type=float, default=None)
    bnd.add_argument("--out", default=None)
    bnd.add_argument("--digits", type=int, default=None)
    bnd.set_defaults(func=cmd_bounds)

    fit_p = sub.add_parser("fit", help="maximum-likelihood fit via SA or VNS-SA")
    fit_p.add_argument("--data", required=True,
                       help="panel CSV path, or 'norway' / 'kazakhstan'")
    fit_p.add_argument("--config", default=None)
    fit_p.add_argument("--urr", type=float, default=None)
    fit_p.add_argument("--seed", type=int, default=None)
    fit_p.add_argument("--algorithm", choices=("sa", "vns-sa"), default="vns-sa")
    fit_p.add_argument("--restarts", type=int, default=None)
    fit_p.add_argument("--peak-x", type=float, default=None,
                       help="conditioning production value for the peak estimate")
    fit_p.add_argument("--peak-s", type=float, default=None,
                       help="conditioning time for the peak estimate")
    fit_p.add_argument("--out", default=None)
    fit_p.add_argument("--digits", type=int, default=None)
    fit_p.set_defaults(func=cmd_fit)

    fc = sub.add_parser("forecast", help="conditional-mean forecast with bands")
    fc.add_argument("--fit", required=True, help="JSON produced by the fit command")
    fc.add_argument("--s", type=float, required=True)
    fc.add_argument("--x-s", type=float, required=True)
    fc.add_argument("--from", dest="start", type=float, required=True)
    fc.add_argument("--to", dest="stop", type=float, required=True)
    fc.add_argument("--step", type=float, default=1.0)
    fc.add_argument("--level", type=float, default=0.95)
    fc.add_argument("--out", default=None)
    fc.add_argument("--digits", type=int, default=None)
    fc.set_defaults(func=cmd_forecast)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
