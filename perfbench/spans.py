"""Outside-in span tracing of hubbertfit's public functions.

The library's modules call each other through module globals
(`lik.objective`, `opt.multistart`, `metropolis_step`, ...), so replacing
those globals with timing wrappers sees every call without touching the
package.  Each wrapper appends one span (name, parent, start, end, value)
to column arrays kept in memory; `value` is a number taken from the call's
result where a layer metric needs one (the objective value, T0, whether a
Metropolis proposal was accepted, ...).  Spans are written out once, at
the end of a run.
"""

from __future__ import annotations

import math
import sys
import time
from array import array

import numpy as np

# (module, attribute, value hook).  The hook maps (args, result) to a float.
TARGETS = [
    ("likelihood", "objective", lambda a, r: r),
    ("likelihood", "SufficientStats.from_panel", None),
    ("optimize", "multistart", None),
    ("optimize", "vns_sa", lambda a, r: _vns_improvements(r)),
    ("optimize", "simulated_annealing", lambda a, r: float(r.stop_reason == "stall")),
    ("optimize", "initial_temperature", lambda a, r: r),
    ("optimize", "metropolis_step", lambda a, r: float(r is a[1])),
    ("inference", "fit", lambda a, r: r.n_evals),
    ("inference", "fisher_information", None),
    ("inference", "asymptotic_cov", None),
    ("inference", "estimate_peak", None),
    ("inference", "forecast", lambda a, r: len(r.times)),
    ("bounds", "build_box", None),
    ("process", "simulate_paths", None),
    ("datasets", "load_norway", None),
    ("datasets", "load_kazakhstan", None),
    ("datasets", "load_panel_csv", None),
    ("cli", "main", None),
]


def _vns_improvements(result) -> float:
    """Number of VNS local searches that improved the incumbent."""
    incumbent, improved = result.phase1.best.value, 0
    for search in result.local_searches:
        if search["value"] < incumbent:
            incumbent, improved = search["value"], improved + 1
    return float(improved)


class Tracer:
    """Span recorder; wrappers record only while `on` is true."""

    def __init__(self):
        self.names: list[str] = []
        self.code = array("h")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.value = array("d")
        self.on = True
        self._stack = [-1]

    def _wrap(self, name: str, fn, hook):
        code = len(self.names)
        self.names.append(name)
        c_code, c_parent, c_start = self.code, self.parent, self.start
        c_end, c_value, stack, clock = self.end, self.value, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(c_code)
            c_code.append(code)
            c_parent.append(stack[-1])
            c_end.append(0)
            c_value.append(math.nan)
            stack.append(idx)
            c_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                c_end[idx] = clock()
                stack.pop()
            if hook is not None:
                c_value[idx] = hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "hubbertfit") -> None:
        """Replace every reference to each target inside the package.

        Re-exports (`hubbertfit.fit`) and `from .x import y` bindings hold
        the same function object, so all of them are swapped; the
        from_panel classmethod is replaced on its class.
        """
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for mod_name, attr, hook in TARGETS:
            module = sys.modules[f"{package}.{mod_name}"]
            label = f"{mod_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self._wrap(label, original, hook)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(label, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def mark(self) -> int:
        """Index of the next span, to slice out the spans of one phase."""
        return len(self.code)

    def add_child_spans(self, path) -> None:
        """Append spans written by `write` in another process (same clock)."""
        offset = len(self.code)
        with open(path) as handle:
            next(handle)
            for line in handle:
                parent, name, start, end, value = line.rstrip("\n").split(",")
                if name not in self.names:
                    self.names.append(name)
                self.code.append(self.names.index(name))
                self.parent.append(int(parent) + offset if int(parent) >= 0 else -1)
                self.start.append(int(start))
                self.end.append(int(end))
                self.value.append(float(value))

    def write(self, path) -> None:
        """One CSV row per span; the span id is its row number (from 0)."""
        names = self.names
        with open(path, "w") as handle:
            handle.write("parent,name,start_ns,end_ns,value\n")
            for i in range(len(self.code)):
                handle.write(
                    f"{self.parent[i]},{names[self.code[i]]},{self.start[i]},"
                    f"{self.end[i]},{self.value[i]!r}\n"
                )


class SpanSet:
    """Spans [lo, hi) of a tracer as arrays, with ancestry queries."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        parent = np.array(tracer.parent[lo:hi], dtype=np.int64) - lo
        parent[parent < 0] = -1  # the root, or a parent before the slice
        self.parent = parent
        self.code = np.array(tracer.code[lo:hi], dtype=np.int64)
        self.dur = 1e-9 * (
            np.array(tracer.end[lo:hi], dtype=np.int64)
            - np.array(tracer.start[lo:hi], dtype=np.int64)
        )
        self.value = np.array(tracer.value[lo:hi], dtype=np.float64)
        self._codes = {n: i for i, n in enumerate(tracer.names)}
        # Self time: duration minus the durations of direct children.
        child = parent >= 0
        self.self_time = self.dur - np.bincount(
            parent[child], weights=self.dur[child], minlength=parent.size
        )

    def is_(self, *names):
        return np.isin(self.code, [self._codes[n] for n in names if n in self._codes])

    def nearest(self, *names):
        """Index of each span's nearest strict ancestor named in `names`, or -1."""
        mark = self.is_(*names)
        owner = np.full(self.code.size, -1)
        cur = self.parent.copy()
        todo = cur >= 0
        while todo.any():
            hit = todo & mark[np.maximum(cur, 0)]
            owner[hit] = cur[hit]
            todo &= ~hit
            cur[todo] = self.parent[cur[todo]]
            todo &= cur >= 0
        return owner

    def total_by(self, owner, mask, weights=None):
        """Per-owner count (or weighted sum) of the spans in mask."""
        mask = mask & (owner >= 0)
        w = None if weights is None else weights[mask]
        return np.bincount(owner[mask], weights=w, minlength=self.code.size)


def _median(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.median(values)) if values.size else 0.0


def _ratio(num, den) -> float:
    return float(num / den) if den else 0.0


def layer_metrics(s: SpanSet, setup: SpanSet) -> dict:
    """Per-layer figures from the spans of traced ops and of traced set-up.

    Counts are per fit (median over the fits in the ops) and durations
    medians per call, unless the name says otherwise.  A layer the
    workload never enters reads 0.
    """
    fits = np.flatnonzero(s.is_("inference.fit"))
    fit_of = s.nearest("inference.fit")
    sa = s.is_("optimize.simulated_annealing")
    sa_of = s.nearest("optimize.simulated_annealing")
    obj = s.is_("likelihood.objective") & (fit_of >= 0)
    metro = s.is_("optimize.metropolis_step")
    probe = s.is_("optimize.initial_temperature")
    vns = s.is_("optimize.vns_sa")

    # Phase 1 is the first annealing run under each vns_sa; with
    # algorithm="sa" every run is a phase-1 run.
    sa_idx = np.flatnonzero(sa)
    under_vns = vns[np.maximum(s.parent[sa_idx], 0)] & (s.parent[sa_idx] >= 0)
    _, first = np.unique(s.parent[sa_idx], return_index=True)
    is_phase1 = np.zeros(s.code.size, dtype=bool)
    is_phase1[sa_idx[first]] = True
    is_phase1[sa_idx[~under_vns]] = True
    in_phase1 = (sa_of >= 0) & is_phase1[np.maximum(sa_of, 0)]

    fit_wall = s.dur[fits]
    calls = s.total_by(fit_of, obj)[fits]
    phase1_calls = s.total_by(fit_of, obj & in_phase1)[fits]
    local_searches = s.total_by(fit_of, sa & ~is_phase1)[fits]
    fisher_cov = s.total_by(
        fit_of, s.is_("inference.fisher_information", "inference.asymptotic_cov"), s.dur
    )[fits]
    forecast = s.is_("inference.forecast")
    cli_main = s.is_("cli.main")
    cli_forecast = s.total_by(s.nearest("cli.main"), forecast, s.dur)[cli_main]
    p1_metro = metro & in_phase1

    return {
        "likelihood.objective_calls": _median(calls),
        "likelihood.objective_us": 1e6 * _median(s.dur[obj]),
        "likelihood.objective_share": _ratio(s.dur[obj].sum(), fit_wall.sum()),
        "likelihood.infeasible_share": _ratio(np.isinf(s.value[obj]).sum(), obj.sum()),
        "likelihood.from_panel_ms": 1e3 * _median(s.dur[s.is_("likelihood.from_panel") & (fit_of >= 0)]),
        "optimize.fit_n_evals": _median(s.value[fits]),
        "optimize.sa_runs": _median(s.total_by(fit_of, sa)[fits]),
        "optimize.phase1_evals": _median(phase1_calls),
        "optimize.vns_evals": _median(calls - phase1_calls),
        "optimize.phase1_t0_log10": _median(np.log10(s.value[probe & in_phase1])),
        "optimize.phase1_accept_rate": _ratio(s.value[p1_metro].sum(), p1_metro.sum()),
        "optimize.stall_share": _ratio(s.value[sa].sum(), sa.sum()),
        "optimize.vns_improve_ratio": _ratio(s.value[vns].sum(), local_searches.sum()),
        "optimize.t0_probe_ms": 1e3 * _median(s.dur[probe]),
        "optimize.sa_self_us_per_step": 1e6 * _ratio(s.self_time[sa].sum(), metro.sum()),
        "optimize.evals_per_s": _median(calls / fit_wall) if fits.size else 0.0,
        "inference.fit_self_ms": 1e3 * _median(s.self_time[fits]),
        "inference.fisher_cov_us": 1e6 * _median(fisher_cov),
        "inference.peak_us": 1e6 * _median(s.dur[s.is_("inference.estimate_peak")]),
        "inference.forecast_us_per_point": 1e6 * _ratio(s.dur[forecast].sum(), s.value[forecast].sum()),
        "bounds.build_box_us": 1e6 * _median(s.dur[s.is_("bounds.build_box") & (fit_of >= 0)]),
        "process.simulate_ms": 1e3 * _median(setup.dur[setup.is_("process.simulate_paths")]),
        "datasets.load_ms": 1e3 * _median(
            setup.dur[setup.is_("datasets.load_norway", "datasets.load_kazakhstan", "datasets.load_panel_csv")]
        ),
        "cli.inproc_ms": 1e3 * _median(s.dur[cli_main]),
        "cli.overhead_ms": 1e3 * _median(s.dur[cli_main] - cli_forecast),
        "per_fit": [
            {"objective_calls": int(c), "n_evals": int(n), "wall_s": float(w)}
            for c, n, w in zip(calls, s.value[fits], fit_wall)
        ],
    }
