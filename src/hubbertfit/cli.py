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
# Top-level config keys: (type, may be null, default); "sa" and "vns" are blocks.
_TOP_LEVEL = {"urr": (float, True, None), "seed": (int, True, None), "restarts": (int, False, 1),
              "sigma_cap": (float, False, bounds_mod.SIGMA_UPPER_DEFAULT)}


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


def _read_json(path: str, what: str):
    """The JSON document in the UTF-8 file at path; what names the file in errors."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, nesting too deep
        raise DataFormatError(f"{what} {path} is not valid JSON: {exc}") from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = _read_json(path, "config")
    if not isinstance(cfg, dict):
        raise DataFormatError(f"config {path} must be a JSON object")
    accepted = sorted([*_TOP_LEVEL, "sa", "vns"])
    unknown = sorted(set(cfg) - set(accepted))
    if unknown:
        raise DataFormatError(
            f"unknown config key(s) {', '.join(unknown)}; accepted: {', '.join(accepted)}"
        )
    for key, (kind, nullable, _) in _TOP_LEVEL.items():
        if key in cfg:
            _check_type(key, cfg[key], kind, nullable)
    return cfg


def _settings(args, keys: tuple) -> dict:
    """The run's settings, which are also its config echo: the --config file's keys, plus keys.

    Each of keys takes its flag's value if the flag is given, otherwise the
    config file's, otherwise its default; a key that resolves to None is
    left out unless the file gives it.
    """
    cfg = _load_config(args.config)
    resolved = dict(cfg)
    for key in keys:
        value = getattr(args, key, None)
        if value is None:
            value = cfg.get(key, _TOP_LEVEL[key][2])
        if value is not None:
            resolved[key] = value
    return resolved


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


def _load_data(path: str) -> PanelData:
    builtin = {"norway": datasets.load_norway, "kazakhstan": datasets.load_kazakhstan}
    if path in builtin:
        return builtin[path]()
    return datasets.load_panel_csv(path)


def _grid(start: float, stop: float, step: float, flags: tuple[str, str, str]) -> np.ndarray:
    """start + i*step, i = 0..n, n = (stop - start)/step rounded half down; flags name the three."""
    first, last, by = flags
    if not 0.0 < step < math.inf:
        raise DataFormatError(f"{by} must be positive and finite, got {step}")
    if not -math.inf < start <= stop < math.inf:
        raise DataFormatError(
            f"{first} {start} and {last} {stop} must be finite, with {last} not before {first}"
        )
    try:
        n = math.ceil((stop - start) / step - 0.5)
        index = np.arange(n + 1)
        if index.size != n + 1:  # numpy wraps counts near 2**63 to an empty range
            raise ValueError
    except (OverflowError, ValueError):
        raise DataFormatError(
            f"{first} {start}, {last} {stop} and {by} {step} give more points than numpy can index"
        ) from None
    return start + step * index


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    times = _grid(args.t0, args.t_final, args.step, ("--t0", "--t-final", "--step"))
    if times.size < 2:
        raise DataFormatError(
            f"--t0 {args.t0}, --t-final {args.t_final} and --step {args.step} give a one-point grid"
        )
    _check_seed(args.seed)
    init = InitialDistribution.degenerate(args.x0)
    params = ProcessParams(eta=args.eta, alpha=args.alpha, sigma=args.sigma, init=init, t0=args.t0)
    panel = simulate_paths(params, PathGrid(times), args.n_paths, args.seed)
    if args.subsample:
        offset = np.mod(times - args.t0, 1.0)
        keep = np.isclose(offset, 0.0) | np.isclose(offset, 1.0)
        panel = PanelData(times=[t[keep] for t in panel.times], values=[v[keep] for v in panel.values])
    datasets.write_panel_csv(args.out, panel)
    return 0


def cmd_bounds(args) -> int:
    settings = _settings(args, ("urr", "sigma_cap"))
    urr = settings.get("urr")
    data = _load_data(args.data)
    box = bounds_mod.build_box(data, urr=urr, sigma_cap=settings["sigma_cap"])
    doc = {
        "schema_version": SCHEMA_VERSION,
        "eta_upper": box.eta_range[1],
        "alpha_star": box.alpha_range[1],
        "sigma_upper": box.sigma_range[1],
        "fallback": urr is None,
        "config": settings,
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
    if args.peak_x is not None:
        errors._check_positive("--peak-x", args.peak_x)
        errors._check_finite("--peak-s", args.peak_s)
    settings = _settings(args, ("urr", "seed", "restarts", "sigma_cap"))
    _check_seed(settings.get("seed"))
    data = _load_data(args.data)
    fit = inference.fit(
        data,
        urr=settings.get("urr"),
        sa_config=_config_block(settings, "sa", opt.SAConfig, {"init_probe_count": "probe_count"}),
        vns_config=_config_block(settings, "vns", opt.VNSConfig, {}),
        seed=settings.get("seed"),
        n_restarts=settings["restarts"],
        algorithm=args.algorithm,
        sigma_cap=settings["sigma_cap"],
    )
    peak_args = None if args.peak_x is None else (args.peak_x, args.peak_s)
    settings["algorithm"] = args.algorithm
    _emit_json(_fit_document(fit, settings, peak_args), args.out, args.digits)
    return 0


def cmd_forecast(args) -> int:
    horizon = _grid(args.start, args.stop, args.step, ("--from", "--to", "--step"))
    fit = _read_fit(_read_json(args.fit, "fit file"), args.fit)
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
    # flags shared by bounds and fit, and the output flags shared with forecast
    data_flags = argparse.ArgumentParser(add_help=False)
    data_flags.add_argument("--data", required=True, help="panel CSV path, or 'norway' / 'kazakhstan'")
    data_flags.add_argument("--config")
    data_flags.add_argument("--urr", type=float)
    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument("--out")
    out_flags.add_argument("--digits", type=int)

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

    bnd = sub.add_parser("bounds", parents=[data_flags, out_flags],
                         help="report the (eta, alpha, sigma) search box")
    bnd.set_defaults(func=cmd_bounds)

    fit_p = sub.add_parser("fit", parents=[data_flags, out_flags],
                           help="maximum-likelihood fit (profiled likelihood, SA or VNS-SA)")
    fit_p.add_argument("--seed", type=int)
    fit_p.add_argument("--algorithm", choices=("profile", "sa", "vns-sa"), default="profile",
                       help="profile: Fisher scoring on the sigma-profiled likelihood (deterministic); "
                       "sa, vns-sa: the paper's seeded annealing searches")
    fit_p.add_argument("--restarts", type=int)
    fit_p.add_argument("--peak-x", type=float,
                       help="conditioning production value for the peak estimate")
    fit_p.add_argument("--peak-s", type=float,
                       help="conditioning time for the peak estimate")
    fit_p.set_defaults(func=cmd_fit)

    fc = sub.add_parser("forecast", parents=[out_flags], help="conditional-mean forecast with bands")
    fc.add_argument("--fit", required=True, help="JSON produced by the fit command")
    fc.add_argument("--s", type=float, required=True)
    fc.add_argument("--x-s", type=float, required=True)
    fc.add_argument("--from", dest="start", type=float, required=True)
    fc.add_argument("--to", dest="stop", type=float, required=True)
    fc.add_argument("--step", type=float, default=1.0)
    fc.add_argument("--level", type=float, default=0.95)
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
