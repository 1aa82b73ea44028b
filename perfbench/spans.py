"""Spans around the public functions of each rice_game module.

:class:`Tracer` wraps the package's public functions for the length of a
``with`` block. Each wrapper records a span: its name, start, end, parent
span and a few attributes read from the call (window steps, solver
iterations, bytes written). A wrapped name is rebound wherever callers look
it up: on its own module, on the package, and on every module that imported
it by name (``maximize`` in ``cooperative`` and ``noncooperative``,
``social_cost_of_co2`` and the writers in ``cli``). Leaving the block puts
every original back. Nothing under ``src`` changes.

:func:`layer_metrics` turns the spans of traced jobs into the benchmark's
per-layer metrics. A span's self time is its duration minus the part of it
that its child spans cover, so the self times of all spans of a job add up
to the job's root span. Private functions are not wrapped: the forward and
adjoint rollouts inside ``WindowProblem.__call__`` count as ``solver`` time,
and ``model`` time is that of the public ``simulate``, ``step`` and
``social_cost_of_co2`` only.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

import rice_game
from rice_game import calibration, cli, cooperative, model, noncooperative, reporting, solver

#: The package's modules, which are the benchmark's layers, in call order.
LAYERS = ("cli", "calibration", "cooperative", "noncooperative", "solver", "model", "reporting")
MODULES = {name: globals()[name] for name in LAYERS}

#: Span name of the benchmark's own job wrapper, the root of a job's spans.
ROOT = "bench.job"

#: First step distance of a Jacobi round below this counts as convergence
#: (acceptance criterion 06); rounds after it are the tail.
RBA_TAIL_DISTANCE = 1e-3

_FUNCTIONS = {
    "calibration": ("build_default_scenario", "validate_scenario", "serialize_scenario",
                    "load_scenario"),
    "model": ("simulate", "step", "social_cost_of_co2"),
    "solver": ("maximize",),
    "cooperative": ("solve_swm",),
    "noncooperative": ("best_response", "rba_dg", "verify_epsilon_ne", "rhfa_dg"),
    "reporting": ("write_trajectory_csv", "write_frontier_csv", "write_episodes_csv",
                  "write_scc_csv", "write_json", "write_manifest"),
    "cli": ("main",),
}


def _steps_of_simulate(args, kwargs, out):
    return {"steps": int(out.states.shape[0] - 1)}


def _report_of_maximize(args, kwargs, out):
    return {"iterations": out.iterations, "evaluations": out.n_evaluations,
            "termination": out.termination}


def _episodes_of_rba(args, kwargs, out):
    distances = [ep.distance_inf for ep in out.episodes[1:]]
    first = next((k for k, d in enumerate(distances, 1) if d < RBA_TAIL_DISTANCE), None)
    tail = 0 if first is None else len(distances) - first
    return {"episodes": len(distances), "tail_episodes": tail}


def _bytes_written(args, kwargs, out):
    path = kwargs.get("path", args[-1] if args else None)
    return {"bytes": os.path.getsize(path)}


def _steps_of_window(args, kwargs, out):
    return {"steps": args[0].steps}


_ATTRS = {
    "model.simulate": _steps_of_simulate,
    "solver.maximize": _report_of_maximize,
    "noncooperative.rba_dg": _episodes_of_rba,
    "solver.objective": _steps_of_window,
}
_ATTRS.update({f"reporting.{fn}": _bytes_written for fn in _FUNCTIONS["reporting"]})


class Tracer:
    """Records spans of the wrapped functions while its block runs.

    ``spans`` holds ``[name, start, end, parent, attrs]`` lists; ``parent``
    is the index of the enclosing span or -1.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self._stack = []
        self._saved = []

    # -- recording -----------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        spans.append(span)
        stack.append(len(spans) - 1)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            span[2] = time.perf_counter()
            span[4] = {"error": type(exc).__name__}
            raise
        else:
            span[2] = time.perf_counter()
        finally:
            stack.pop()
        attrs = _ATTRS.get(name)
        if attrs is not None:
            span[4] = attrs(args, kwargs, out)
        return out

    def job(self, fn, *args, **kwargs):
        """Run ``fn`` under the root span of one job."""
        return self._call(ROOT, fn, args, kwargs)

    def _wrap(self, name, fn):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already active")
        sites = [rice_game, *MODULES.values()]
        try:
            for layer, names in _FUNCTIONS.items():
                for attr in names:
                    fn = getattr(MODULES[layer], attr)
                    wrapper = self._wrap(f"{layer}.{attr}", fn)
                    for site in sites:
                        for key, value in list(vars(site).items()):
                            if value is fn:
                                self._rebind(site, key, wrapper)
            problem = solver.WindowProblem
            self._rebind(problem, "__call__", self._wrap("solver.objective", problem.__call__))
            self._rebind(problem, "__init__",
                         self._wrap("solver.window_problem.init", problem.__init__))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "workload": self.workload,
                                     "attrs": attrs or {}}))
                fh.write("\n")


def self_times(spans) -> list:
    """Self time of each span: duration minus the time its children cover."""
    covered = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent].append((start, end))
    out = []
    for (name, start, end, parent, _), kids in zip(spans, covered):
        busy, reach = 0.0, start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                busy += hi - lo
                reach = hi
        out.append((end - start) - busy)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


#: Per-layer metric names and units, in the order they are reported.
METRICS = {
    "solver.objective.calls": "count",
    "solver.objective.s": "s",
    "solver.objective.us_per_step": "us",
    "solver.objective.breakdowns": "count",
    "solver.maximize.calls": "count",
    "solver.maximize.self_s": "s",
    "solver.maximize.iterations": "count",
    "solver.maximize.evals_per_iter": "ratio",
    "solver.maximize.term.gradient": "count",
    "solver.maximize.term.objective-change": "count",
    "solver.maximize.term.max-iter": "count",
    "solver.maximize.term.line-search-failure": "count",
    "solver.window_problem.init_s": "s",
    "model.simulate.calls": "count",
    "model.simulate.us_per_step": "us",
    "model.step.calls": "count",
    "model.step.s": "s",
    "model.social_cost_of_co2.calls": "count",
    "model.social_cost_of_co2.ms_per_call": "ms",
    "cooperative.solve_swm.self_s": "s",
    "noncooperative.best_response.calls": "count",
    "noncooperative.best_response.s": "s",
    "noncooperative.verify_epsilon_ne.s": "s",
    "noncooperative.rhfa_dg.self_s": "s",
    "noncooperative.rba_dg.episodes": "count",
    "noncooperative.rba_dg.tail_episodes": "count",
    "calibration.build_default_scenario.s": "s",
    "calibration.validate_scenario.s": "s",
    "reporting.write.s": "s",
    "reporting.bytes": "bytes",
    "cli.main.self_s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in ("bench",) + LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, jobs: int, untraced_wall: list) -> dict:
    """Per-layer metrics of ``jobs`` traced jobs, as means per job.

    ``untraced_wall`` holds the wall times of the untraced jobs run beside
    them; the tracing overhead is the difference of the two means.
    """
    selfs = self_times(spans)
    calls, total, own = Counter(), Counter(), Counter()
    attr_sum, terms, layers = Counter(), Counter(), Counter()
    errors = Counter()
    for span, self_s in zip(spans, selfs):
        name, start, end, parent, attrs = span
        calls[name] += 1
        own[name] += self_s
        layers[layer_of(name)] += self_s
        # A writer that calls another writer (write_manifest calls
        # write_json) counts once, at the outer call.
        if layer_of(name) == "reporting" and (
                parent < 0 or layer_of(spans[parent][0]) != "reporting"):
            total["reporting.entry"] += end - start
            attr_sum["reporting.bytes"] += (attrs or {}).get("bytes", 0)
        total[name] += end - start
        for key, value in (attrs or {}).items():
            if key == "termination":
                terms[value] += 1
            elif key == "error":
                errors[(name, value)] += 1
            else:
                attr_sum[f"{name}.{key}"] += value
    root_wall = total[ROOT]
    values = {
        "solver.objective.calls": calls["solver.objective"],
        "solver.objective.s": total["solver.objective"],
        "solver.objective.us_per_step": 1e6 * _ratio(
            total["solver.objective"], attr_sum["solver.objective.steps"]),
        "solver.objective.breakdowns": errors[("solver.objective", "ModelBreakdownError")],
        "solver.maximize.calls": calls["solver.maximize"],
        "solver.maximize.self_s": own["solver.maximize"],
        "solver.maximize.iterations": attr_sum["solver.maximize.iterations"],
        "solver.maximize.evals_per_iter": _ratio(
            attr_sum["solver.maximize.evaluations"], attr_sum["solver.maximize.iterations"]),
        **{f"solver.maximize.term.{t}": terms[t]
           for t in ("gradient", "objective-change", "max-iter", "line-search-failure")},
        "solver.window_problem.init_s": total["solver.window_problem.init"],
        "model.simulate.calls": calls["model.simulate"],
        "model.simulate.us_per_step": 1e6 * _ratio(
            total["model.simulate"], attr_sum["model.simulate.steps"]),
        "model.step.calls": calls["model.step"],
        "model.step.s": total["model.step"],
        "model.social_cost_of_co2.calls": calls["model.social_cost_of_co2"],
        "model.social_cost_of_co2.ms_per_call": 1e3 * _ratio(
            total["model.social_cost_of_co2"], calls["model.social_cost_of_co2"]),
        "cooperative.solve_swm.self_s": own["cooperative.solve_swm"],
        "noncooperative.best_response.calls": calls["noncooperative.best_response"],
        "noncooperative.best_response.s": total["noncooperative.best_response"],
        "noncooperative.verify_epsilon_ne.s": total["noncooperative.verify_epsilon_ne"],
        "noncooperative.rhfa_dg.self_s": own["noncooperative.rhfa_dg"],
        "noncooperative.rba_dg.episodes": attr_sum["noncooperative.rba_dg.episodes"],
        "noncooperative.rba_dg.tail_episodes": attr_sum["noncooperative.rba_dg.tail_episodes"],
        "calibration.build_default_scenario.s": total["calibration.build_default_scenario"],
        "calibration.validate_scenario.s": total["calibration.validate_scenario"],
        "reporting.write.s": total["reporting.entry"],
        "reporting.bytes": attr_sum["reporting.bytes"],
        "cli.main.self_s": own["cli.main"],
        **{f"layer.{layer}.self_s": layers[layer] for layer in ("bench",) + LAYERS},
        "trace.wall_s": root_wall,
        "trace.spans": len(spans),
    }
    # Ratios are already per call; every other value is a total over the jobs.
    ratios = {"solver.objective.us_per_step", "solver.maximize.evals_per_iter",
              "model.simulate.us_per_step", "model.social_cost_of_co2.ms_per_call"}
    n = max(jobs, 1)
    per_job = {name: value if name in ratios else value / n for name, value in values.items()}
    untraced = sum(untraced_wall) / len(untraced_wall)
    per_job["trace.untraced_wall_s"] = untraced
    per_job["trace.overhead_s"] = per_job["trace.wall_s"] - untraced
    return {name: per_job[name] for name in METRICS}
