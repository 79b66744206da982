"""hubbertfit benchmark: fit, peak and forecast workloads, end to end and by layer.

    python3 perfbench/run.py --workload ref-panel --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports hubbertfit from its
src/ directory.  One client runs one op at a time (closed loop), cycling
over the workload's fixed seed list; a run always fits every seed once,
and a further op starts only while it can be expected to end within
--seconds.
Every op's output is checked, and after the timed ops each fit is scored
against a profiled-likelihood oracle.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps the library's
public functions (see spans.py), runs the first op untraced and then
traced, and prints the per-layer metrics.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Details
(per-op times, per-fit gaps and counts, machine info, spans) go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# A fit may end below the oracle by this much (nats) before the oracle is
# declared failed; gaps under it are reported as this floor, so the
# reported gap is never 0.
GAP_TOLERANCE = 1e-6
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# A fresh interpreter times its own import, as measure() times this one's.
IMPORT_TIMER = "import time; t = time.perf_counter(); import hubbertfit.cli; print(time.perf_counter() - t)"

E2E_UNITS = {
    "op_s_p50": "s",
    "objective_gap": "nats",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The run cannot give a result (missing library, failed oracle)."""


def library_env() -> dict:
    """Environment of a child process that imports hubbertfit from ROOT/src."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def import_library():
    """Import hubbertfit from ROOT/src."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hubbertfit
    except ImportError as exc:
        raise BenchmarkError(f"cannot import hubbertfit from {ROOT / 'src'}: {exc}") from None
    if Path(hubbertfit.__file__).resolve().parent.parent != ROOT / "src":
        raise BenchmarkError(f"hubbertfit was imported from {hubbertfit.__file__}, not from src/")
    import hubbertfit.cli  # noqa: F401  (the tracer wraps cli.main)

    return hubbertfit


def machine_info() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tail(times) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it; with fewer than 20 samples that percentile
    would lie below the median, and the maximum is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def fresh_import_seconds(env) -> float:
    """Seconds a fresh interpreter takes to import hubbertfit.cli."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(proc.stdout)


def import_seconds(env) -> float:
    """Wall time of a process importing hubbertfit.cli minus one importing numpy."""

    def median_run(code):
        times = []
        for _ in range(IMPORT_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    return median_run("import hubbertfit.cli") - median_run("import numpy")


def code_hash() -> str:
    """Hash of every file of the hubbertfit package under src/."""
    package = ROOT / "src" / "hubbertfit"
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


class ThetaLog:
    """theta_hat per fit label, kept across runs of the same code.

    The same seed must give an identical theta_hat every time it is fitted,
    within a run and in every later run in this checkout.  The log is kept
    per hash of the package source, so a change to the code starts a new one.
    """

    def __init__(self, workload_name: str):
        self.path = OUT / f"theta-{workload_name}-{code_hash()}.json"
        self.seen = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, label: str, theta) -> list:
        theta = [repr(float(v)) for v in theta]
        known = self.seen.setdefault(label, theta)
        return [] if known == theta else [f"{label}: theta_hat {theta} differs from an earlier run {known}"]

    def save(self) -> None:
        self.path.write_text(json.dumps(self.seen, indent=1, sort_keys=True))


def score_oracle(hf, workload, items, report) -> None:
    """Oracle value and pair reuse of every fit case (untimed)."""
    from oracle import profiled_optimum

    for case in workload.fit_cases(items):
        stats, box = case.stats_and_box()
        start = time.perf_counter()
        best = profiled_optimum(hf, stats, box)
        case.oracle = best["value"]
        case.pair_reuse = stats.n_transitions / stats.pair_count.size
        report.append(
            f"oracle {case.label}: {best['value']:.9f} at eta={best['theta'][0]:.6g} "
            f"alpha={best['theta'][1]:.6g} sigma={best['theta'][2]:.6g}; {best['evals']} profile evals, "
            f"{time.perf_counter() - start:.2f} s, self-check {best['self_check_nats']:.1e} nats; "
            f"pair reuse {case.pair_reuse:.3g} "
            f"({stats.n_transitions} transitions, {stats.pair_count.size} unique pairs, "
            f"{stats.u_times.size} unique times)"
        )


def fit_gaps(scored, report) -> list:
    """Gap to the oracle of every distinct fit among the scored (case,
    objective value) pairs; a seed fitted twice counts once, so the median
    does not depend on how many ops a run made of each seed."""
    from oracle import OracleError

    gaps = {}
    for case, value in scored:
        gap = value - case.oracle
        if gap < -GAP_TOLERANCE:
            raise OracleError(f"{case.label}: fit objective {value!r} is below the oracle {case.oracle!r}")
        if case.label not in gaps:
            gaps[case.label] = max(gap, GAP_TOLERANCE)
            report.append(f"gap {case.label}: {gap:.6g} nats")
    return list(gaps.values())


class Run:
    """Set-up, timed ops and checks of one benchmark run."""

    def __init__(self, workload, args, tracer):
        self.workload, self.args, self.tracer = workload, args, tracer
        self.report: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.scored: list = []  # (case, objective value) of each correct op's fits
        self.thetas = ThetaLog(workload.name)
        self.cli_output = None
        self.last_output = None

    def setup(self) -> tuple[list, float]:
        """Build the inputs several times; returns (items, median seconds)."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            items = self.workload.build(OUT)
            times.append(time.perf_counter() - start)
        return items, statistics.median(times)

    def op(self, item, traced=False) -> float | None:
        """Run, time and check one op; returns its wall seconds, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = self.workload.op(item, self.tracer if traced else None)
        except Exception as exc:  # an op failure is counted, and the loop goes on
            self.failed += 1
            self.report.append(f"op {item.label} FAILED: {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start
        problems = self.workload.check(item, output)
        fits = self.workload.fits(item, output)
        problems += [p for case, _, theta in fits for p in self.thetas.check(case.label, theta)]
        if self.workload.name == "cli-forecast":
            self.cli_output = self.cli_output or output[1]
            if output[1] != self.cli_output:
                problems.append("cli output differs from the first op's")
        if problems:
            self.failed += 1
            self.report += [f"op {item.label} WRONG: {p}" for p in problems]
            return None
        self.scored += [(case, value) for case, value, _ in fits]
        self.report.append(f"op {item.label}{' traced' if traced else ''}: {seconds:.4f} s")
        if self.workload.name != "cli-forecast":
            self.report += [
                f"   {c.label}: n_evals {fit.n_evals}, objective {float(fit.objective_value)!r}, theta_hat {fit.theta_hat}"
                for c, (fit, _, _) in zip(item.cases, output)
            ]
        self.last_output = output
        return seconds

    def score(self, hf, items) -> list:
        """Oracle of every fit case, then the gaps of the scored fits (untimed)."""
        score_oracle(hf, self.workload, items, self.report)
        return fit_gaps(self.scored, self.report)

    def timed_ops(self, order, traced, budget_start) -> list:
        """Every item of `order` once, then round the cycle again while the
        next op, at the mean time per op so far, would end within --seconds."""
        times, start = [], time.perf_counter()
        for done, item in enumerate(itertools.cycle(order)):
            now = time.perf_counter()
            if done >= len(order) and now - budget_start + (now - start) / done > self.args.seconds:
                return times
            seconds = self.op(item, traced)
            if seconds is not None:
                times.append(seconds)
        return times


def seeded_order(items, seed: int) -> list:
    order = list(items)
    random.Random(seed).shuffle(order)
    return order


def end_to_end(run: Run, hf, items, setup_s: float) -> dict:
    times = run.timed_ops(seeded_order(items, run.args.seed), False, time.perf_counter())
    if not times:
        raise BenchmarkError("no op succeeded")
    # Peak memory of the process that runs the op: the CLI children on
    # cli-forecast, else this process before the oracle is loaded.
    cli = run.workload.name == "cli-forecast"
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    value, pct, beyond = tail(times)
    run.report.append(
        f"{len(times)} ops: op_s_p50 {statistics.median(times):.4f} s, "
        f"op_s_tail = p{pct:.1f} of {len(times)} ops ({beyond} beyond) = {value:.4f} s, "
        f"peak_rss_mb {rss:.2f} ({'CLI child' if cli else 'benchmark process'})"
    )
    return {
        "op_s_p50": statistics.median(times),
        "objective_gap": statistics.median(run.score(hf, items)),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }


def per_layer(run: Run, hf, items, setup_mark: int, ops_mark: int) -> dict:
    """Untraced first op, then traced ops; layer metrics from the spans."""
    import numpy as np
    from spans import SpanSet, layer_metrics

    tracer = run.tracer
    order = seeded_order(items, run.args.seed)
    budget_start = time.perf_counter()
    tracer.on = False
    untraced = run.op(order[0])
    tracer.on = True
    first_mark = tracer.mark()
    traced = run.op(order[0], traced=True)
    if untraced is None or traced is None:
        raise BenchmarkError("the first op failed; no layer metrics")
    fits = [fit for fit, _, _ in run.last_output] if run.workload.name != "cli-forecast" else []
    if len(order) > 1 and time.perf_counter() - budget_start + traced <= run.args.seconds:
        run.timed_ops(order[1:], True, budget_start)
    metrics = layer_metrics(SpanSet(tracer, first_mark, tracer.mark()), SpanSet(tracer, setup_mark, ops_mark))
    tracer.on = False
    run.score(hf, items)
    for i, f in enumerate(metrics.pop("per_fit")):
        run.report.append(
            f"traced fit {i}: {f['objective_calls']} objective calls, "
            f"FitResult.n_evals {f['n_evals']}, {f['wall_s']:.3f} s wall"
        )
        if f["objective_calls"] < f["n_evals"]:
            run.failed += 1
            run.report.append(f"traced fit {i} WRONG: fewer objective calls than n_evals")
    metrics["inference.fisher_cond"] = float(np.median([np.linalg.cond(f.fisher) for f in fits])) if fits else 0.0
    metrics["likelihood.pair_reuse"] = float(np.median([c.pair_reuse for c in run.workload.fit_cases(items)]))
    metrics["cli.import_s"] = import_seconds(library_env())
    metrics["trace.overhead_ms"] = 1e3 * (traced - untraced)
    run.report.append(f"tracing overhead on op {order[0].label}: {untraced:.4f} s untraced, {traced:.4f} s traced")
    tracer.write(OUT / f"spans-{run.workload.name}.csv")
    return metrics


def measure(args) -> tuple[Run, dict, dict]:
    """Set up, run the workload and score its fits; (run, values, units)."""
    import_start = time.perf_counter()
    hf = import_library()
    imports = [time.perf_counter() - import_start]
    imports += [fresh_import_seconds(library_env()) for _ in range(SETUP_REPEATS - 1)]
    import_s = statistics.median(imports)
    import workloads
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, ROOT)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run = Run(workload, args, tracer)
    setup_mark = tracer.mark() if tracer else 0
    items, build_s = run.setup()
    setup_s = import_s + build_s
    run.report.append(
        f"set-up: {setup_s:.4f} s (median import {import_s:.4f} s of {', '.join(f'{t:.4f}' for t in imports)}"
        f" + median build {build_s:.4f} s)"
    )
    ops_mark = tracer.mark() if tracer else 0
    if args.trace:
        values, units = per_layer(run, hf, items, setup_mark, ops_mark), LAYER_UNITS
    else:
        values, units = end_to_end(run, hf, items, setup_s), E2E_UNITS
    run.thetas.save()
    return run, values, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run, values, units = measure(args)

    info = machine_info()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": info,
              "values": values, "log": run.report}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(f"# machine: {json.dumps(info)}")
    for line in run.report:
        print(f"# {line}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


LAYER_UNITS = {
    "likelihood.objective_calls": "count",
    "likelihood.objective_us": "us",
    "likelihood.objective_share": "ratio",
    "likelihood.infeasible_share": "ratio",
    "likelihood.from_panel_ms": "ms",
    "likelihood.pair_reuse": "ratio",
    "optimize.fit_n_evals": "count",
    "optimize.sa_runs": "count",
    "optimize.phase1_evals": "count",
    "optimize.vns_evals": "count",
    "optimize.phase1_t0_log10": "log10",
    "optimize.phase1_accept_rate": "ratio",
    "optimize.stall_share": "ratio",
    "optimize.vns_improve_ratio": "ratio",
    "optimize.t0_probe_ms": "ms",
    "optimize.sa_self_us_per_step": "us",
    "optimize.evals_per_s": "1/s",
    "inference.fit_self_ms": "ms",
    "inference.fisher_cov_us": "us",
    "inference.fisher_cond": "ratio",
    "inference.peak_us": "us",
    "inference.forecast_us_per_point": "us",
    "bounds.build_box_us": "us",
    "process.simulate_ms": "ms",
    "datasets.load_ms": "ms",
    "cli.import_s": "s",
    "cli.inproc_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.overhead_ms": "ms",
}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
