"""Command-line front end: simulate | bounds | fit | forecast.

Outputs are machine-readable: panels and forecasts as CSV, everything
else as JSON stamped with a schema_version and the resolved run
configuration.  Exit status is 0 on success, 1 for the library's domain
and optimizer errors, 2 for I/O, parse and argument errors; any other
exception is a bug and propagates.
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
from . import errors
from . import inference
from . import optimize as opt
from .errors import DataFormatError
from .likelihood import PanelData
from .process import InitialDistribution, PathGrid, ProcessParams, simulate_paths

SCHEMA_VERSION = 3

# The library's domain and optimizer errors (exit 1); any other exception is a bug.
_DOMAIN_ERRORS = (
    errors.ParameterDomainError, errors.OrderingError, errors.InfeasibleRegionError,
    errors.ConditioningError, errors.InitializationError,
)

_THETA = ("eta", "alpha", "sigma")
# FitResult fields that the fit document stores under their own names.
_SAME_NAME = (
    "mu1_hat", "sigma1_sq_hat", "log_likelihood", "n_obs", "algorithm",
    "n_restarts", "seed", "stop_reason", "n_evals", "warnings",
)
# Top-level config keys: (type, may be null); "sa" and "vns" are blocks.
_TOP_LEVEL = {"urr": (float, True), "seed": (int, True), "restarts": (int, False),
              "sigma_cap": (float, False)}


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


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out: str | None, digits: int | None) -> None:
    _write(json.dumps(_round_floats(doc, digits), indent=2, allow_nan=True) + "\n", out)


def _check_type(name: str, value, kind, nullable: bool = False) -> None:
    """An int kind takes an integer, a float kind any number; neither a boolean."""
    if nullable and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        noun = ("an integer" if kind is int else "a number") + (" or null" if nullable else "")
        raise DataFormatError(f"config {name} must be {noun}, got {value!r}")


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
    accepted = sorted([*_TOP_LEVEL, "sa", "vns"])
    unknown = sorted(set(cfg) - set(accepted))
    if unknown:
        raise DataFormatError(
            f"unknown config key(s) {', '.join(unknown)}; accepted: {', '.join(accepted)}"
        )
    for key, (kind, nullable) in _TOP_LEVEL.items():
        if key in cfg:
            _check_type(key, cfg[key], kind, nullable)
    return cfg


def _config_block(cfg: dict, block: str, cls, file_keys: dict):
    """cls built from the keys cfg[block] gives; the rest keep cls's defaults.

    file_keys maps a field of cls to its key in the file where the two
    differ.  A key that names no field, or a value of the wrong type
    (see _check_type), is a DataFormatError.
    """
    given = cfg.get(block, {})
    if not isinstance(given, dict):
        raise DataFormatError(f"config block {block!r} must be a JSON object")
    fields = {file_keys.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    unknown = sorted(set(given) - set(fields))
    if unknown:
        raise DataFormatError(
            f"unknown {block!r} config key(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(fields))}"
        )
    for key, value in given.items():
        _check_type(f"{block}.{key}", value, type(fields[key].default))  # int or float
    return cls(**{fields[key].name: value for key, value in given.items()})


def _check_seed(seed) -> None:
    """numpy takes only non-negative seeds; refuse others before any work."""
    if seed is not None and seed < 0:
        raise DataFormatError(f"seed must be a non-negative integer, got {seed}")


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
    if not 0.0 < args.step < math.inf:
        raise DataFormatError(f"--step must be positive and finite, got {args.step}")
    if not -math.inf < args.t0 < args.t_final < math.inf:
        raise DataFormatError(
            f"--t0 {args.t0} and --t-final {args.t_final} must be finite, with --t-final after --t0"
        )
    n_steps = round((args.t_final - args.t0) / args.step)
    if n_steps < 1:
        raise DataFormatError(
            f"--step {args.step} is longer than the window from --t0 {args.t0} to --t-final {args.t_final}"
        )
    _check_seed(args.seed)
    init = InitialDistribution.degenerate(args.x0)
    params = ProcessParams(
        eta=args.eta, alpha=args.alpha, sigma=args.sigma, init=init, t0=args.t0
    )
    times = args.t0 + args.step * np.arange(n_steps + 1)
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
        doc["alpha1"], doc["alpha2"] = bounds_mod.alpha_caps(data, urr)
    _emit_json(doc, args.out, args.digits)
    return 0


def _peak_block(peak: inference.PeakEstimate) -> dict:
    return {"time": peak.peak_time, "time_se": peak.peak_time_se,
            "value": peak.peak, "value_se": peak.peak_se}


def _fit_document(fit: inference.FitResult, cfg: dict, peak_args) -> dict:
    """The fit as a JSON object; _read_fit is its inverse."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "theta_hat": dict(zip(_THETA, fit.theta_hat)),
        "eta_unshifted": fit.eta_unshifted,
        "time_shift_k": fit.time_shift_k,
        "std_errors": dict(zip(_THETA, fit.std_errors)),
        "cov": np.asarray(fit.cov).tolist(),
        "fisher": np.asarray(fit.fisher).tolist(),
        "objective": fit.objective_value,
        "peak": _peak_block(inference.estimate_peak(fit)),
        "box": {name: list(getattr(fit.box, f"{name}_range")) for name in _THETA},
        "n_paths": fit.d,
        **{name: getattr(fit, name) for name in _SAME_NAME},
        "config": cfg,
    }
    if peak_args is not None:
        y, s = peak_args
        conditional = inference.estimate_peak(fit, y=y, s=s)
        doc["peak_conditional"] = {**_peak_block(conditional), "conditioning": {"x_s": y, "s": s}}
    return doc


def _read_fit(doc, path: str) -> inference.FitResult:
    """The FitResult that _fit_document wrote; a DataFormatError names what is wrong."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise DataFormatError(f"fit file {path} has schema_version {version!r}, not {SCHEMA_VERSION}")
    try:
        theta, box = doc["theta_hat"], doc["box"]
        fit = inference.FitResult(
            theta_hat=tuple(float(theta[name]) for name in _THETA),
            time_shift_k=float(doc["time_shift_k"]),
            cov=np.asarray(doc["cov"], dtype=float),
            fisher=np.asarray(doc["fisher"], dtype=float),
            objective_value=doc["objective"],
            box=bounds_mod.SolutionBox(*(tuple(box[name]) for name in _THETA)),
            d=doc["n_paths"],
            **{name: doc[name] for name in _SAME_NAME},
        )
    except KeyError as exc:
        raise DataFormatError(f"fit file {path} is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"fit file {path} has a malformed field: {exc}") from None
    if fit.cov.shape != (3, 3) or fit.fisher.shape != (3, 3):
        raise DataFormatError(f"fit file {path}: cov and fisher must be 3x3 matrices")
    return fit


def cmd_fit(args) -> int:
    if (args.peak_x is None) != (args.peak_s is None):
        raise DataFormatError("--peak-x and --peak-s must be given together")
    # estimate_peak would refuse these too, but only after the whole fit
    if args.peak_x is not None and not 0.0 < args.peak_x < math.inf:
        raise errors.ParameterDomainError(f"--peak-x must be positive and finite, got {args.peak_x}")
    if args.peak_s is not None and not math.isfinite(args.peak_s):
        raise errors.ParameterDomainError(f"--peak-s must be finite, got {args.peak_s}")
    cfg = _load_config(args.config)
    urr = args.urr if args.urr is not None else cfg.get("urr")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    _check_seed(seed)
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
    peak_args = None if args.peak_x is None else (args.peak_x, args.peak_s)
    resolved = _resolved(cfg, urr=urr, seed=seed, restarts=restarts, algorithm=args.algorithm)
    _emit_json(_fit_document(fit, resolved, peak_args), args.out, args.digits)
    return 0


def cmd_forecast(args) -> int:
    if not 0.0 < args.step < math.inf:
        raise DataFormatError(f"--step must be positive and finite, got {args.step}")
    if not -math.inf < args.start <= args.stop < math.inf:
        raise DataFormatError(
            f"--from {args.start} and --to {args.stop} must be finite, with --to not before --from"
        )
    try:
        with open(args.fit) as handle:
            fit_doc = json.load(handle)
    except OSError as exc:
        raise DataFormatError(f"cannot read fit file {args.fit}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"fit file {args.fit} is not valid JSON: {exc}") from None
    fit = _read_fit(fit_doc, args.fit)
    horizon = np.arange(args.start, args.stop + 0.5 * args.step, args.step)
    result = inference.forecast(fit, args.s, args.x_s, horizon, level=args.level)
    rows = _round_floats(
        [list(row) for row in zip(result.times, result.point, result.lower, result.upper)],
        args.digits,
    )
    lines = ["year,mean,lower,upper"] + [",".join(repr(float(v)) for v in row) for row in rows]
    _write("\n".join(lines) + "\n", args.out)
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

    fit_p = sub.add_parser("fit", help="maximum-likelihood fit (profiled likelihood, SA or VNS-SA)")
    fit_p.add_argument("--data", required=True,
                       help="panel CSV path, or 'norway' / 'kazakhstan'")
    fit_p.add_argument("--config", default=None)
    fit_p.add_argument("--urr", type=float, default=None)
    fit_p.add_argument("--seed", type=int, default=None)
    fit_p.add_argument("--algorithm", choices=("profile", "sa", "vns-sa"), default="profile",
                       help="profile: Nelder-Mead on the sigma-profiled likelihood (deterministic); "
                       "sa, vns-sa: the paper's seeded annealing searches")
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
