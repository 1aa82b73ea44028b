"""Box-constrained trajectory optimization with exact adjoint gradients.

The decision vector flattens a :class:`~rice_game.model.ControlProfile` in
region-major, time-minor, [s, mu] order. Welfare is maximized by running a
projected quasi-Newton method (the L-BFGS-B engine from scipy) on the
negated, scaled objective. Gradients come from the model's hand-derived
discrete adjoint sweep, which matches the rollout step by step.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .model import (
    ControlProfile,
    ModelBreakdownError,
    ModelDomainError,
    RiceState,
    Scenario,
    _adjoint_arrays,
    _time_major,
)

__all__ = [
    "SolveOptions",
    "SolveReport",
    "maximize",
    "gradient_adjoint",
    "WindowProblem",
]

#: Scaled objective magnitude charged when a candidate profile breaks the
#: model: large enough that every feasible point wins, small enough that the
#: safeguarded cubic interpolation inside the line search stays numerically
#: meaningful and backtracks into the feasible region (an extreme constant
#: like 1e50 makes the first trial step abort the whole solve instead).
_BREAKDOWN_MARGIN = 1e6

#: Stop tests of :func:`maximize`: the infinity norm of the projected
#: gradient of the scaled objective, and the relative objective change
#: between accepted iterates.
_GRAD_TOL = 1e-6
_OBJ_REL_TOL = 1e-10
#: L-BFGS-B's correction pairs and function evaluations per line search.
_LBFGS_MEMORY = 20
_MAX_LINE_SEARCH = 40
#: Half-width of a multistart's uniform jitter, as a fraction of the box.
_PERTURB_SCALE = 0.1


@dataclass
class SolveOptions:
    """Knobs for :func:`maximize`.

    ``max_iter`` caps the quasi-Newton iterations of each start.
    ``multistart`` runs the given initial point plus bound-respecting
    random perturbations of it (deterministic in ``seed``); exact
    objective ties keep the lowest start index.
    """

    max_iter: int = 2000
    multistart: int = 1
    seed: int = 0


@dataclass
class SolveReport:
    """Outcome of one :func:`maximize` call.

    ``initial_objective`` is the objective at the caller's initial point
    (after clipping into the box), so callers need not evaluate it again.
    ``objective_log`` holds the unscaled objective at the initial point and
    every accepted iterate of the winning start; it is nondecreasing.
    ``termination`` is one of ``gradient``, ``objective-change``,
    ``max-iter`` or ``line-search-failure``.
    """

    x: np.ndarray
    objective: float
    initial_objective: float
    iterations: int
    n_evaluations: int
    termination: str
    start_index: int
    objective_log: np.ndarray
    start_objectives: list = field(default_factory=list)


def _pool_map(fn, args, threads: int) -> list:
    """``[fn(*a) for a in args]`` over ``min(threads, len(args))`` worker processes."""
    workers = min(threads, len(args))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*args)))
    return [fn(*a) for a in args]


def _termination_reason(res) -> str:
    msg = str(res.message).upper()
    if "PGTOL" in msg or "PROJECTED GRADIENT" in msg:
        return "gradient"
    if "FACTR" in msg or "REDUCTION" in msg:
        return "objective-change"
    if res.status == 1:
        return "max-iter"
    return "line-search-failure"


def maximize(
    objective,
    lower: np.ndarray,
    upper: np.ndarray,
    init: np.ndarray,
    options: SolveOptions | None = None,
) -> SolveReport:
    """Maximize ``objective`` over the box [lower, upper].

    ``objective(x)`` must return ``(value, gradient)``. The problem is
    handed to the L-BFGS-B engine as minimization of the negated
    objective, scaled by 1/|f(init)| so tolerances behave uniformly across
    problems. The returned objective never falls below the initial one.
    """
    opts = options or SolveOptions()
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    init = np.asarray(init, dtype=float)
    if lower.shape != init.shape or upper.shape != init.shape:
        raise ModelDomainError("bounds and init must share one shape")
    if np.any(lower > upper):
        raise ModelDomainError("lower bound exceeds upper bound")
    if np.any(init < lower - 1e-12) or np.any(init > upper + 1e-12):
        raise ModelDomainError("init must lie within the bounds")
    init = np.clip(init, lower, upper)

    # Each start point is evaluated for the log (the first one for ``f0``)
    # and again as L-BFGS-B's first call; answer repeats from memory.
    last = {}

    def evaluate(x):
        if last and np.array_equal(x, last["x"]):
            return last["fg"]
        fg = objective(x)  # a call that raises stores nothing
        last["x"], last["fg"] = x.copy(), fg
        return fg

    f0, _ = evaluate(init)
    if not np.isfinite(f0):
        raise ModelDomainError("objective at init is not finite")
    scale = 1.0 / max(abs(f0), 1e-12)

    rng = np.random.default_rng(opts.seed)
    starts = [init]
    span = upper - lower
    for _ in range(max(opts.multistart, 1) - 1):
        jitter = _PERTURB_SCALE * rng.uniform(-1.0, 1.0, size=init.shape) * span
        starts.append(np.clip(init + jitter, lower, upper))

    bounds = list(zip(lower, upper))
    best = None
    start_objectives = []
    for idx, x_start in enumerate(starts):
        last_f = {"val": math.nan}

        def fun(x):
            try:
                f, g = evaluate(x)
            except ModelBreakdownError:
                f, g = -_BREAKDOWN_MARGIN / scale, np.zeros_like(x)
            last_f["val"] = f
            return -scale * f, -scale * np.asarray(g)

        try:
            log = [evaluate(x_start)[0]]
        except ModelBreakdownError:
            log = [-_BREAKDOWN_MARGIN / scale]

        def callback(xk):
            log.append(last_f["val"])

        res = minimize(
            fun,
            x_start,
            method="L-BFGS-B",
            jac=True,
            bounds=bounds,
            callback=callback,
            options={
                "maxiter": opts.max_iter,
                "maxcor": _LBFGS_MEMORY,
                "maxls": _MAX_LINE_SEARCH,
                "gtol": _GRAD_TOL,
                "ftol": _OBJ_REL_TOL,
            },
        )
        f_run = -res.fun / scale
        start_objectives.append(f_run)
        if best is None or f_run > best.objective:
            best = SolveReport(
                x=res.x.copy(),
                objective=f_run,
                initial_objective=f0,
                iterations=res.nit,
                n_evaluations=res.nfev,
                termination=_termination_reason(res),
                start_index=idx,
                objective_log=np.asarray(log),
            )

    best.start_objectives = start_objectives
    if best.objective < f0:
        # No start improved on the caller's initial point; honor the
        # ascent guarantee by returning it unchanged.
        best.x = init.copy()
        best.objective = f0
        best.objective_log = np.array([f0])
    return best


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def gradient_adjoint(
    profile: ControlProfile,
    scenario: Scenario,
    weights: np.ndarray,
) -> np.ndarray:
    """Exact gradient of weighted welfare from ``scenario.x0``, in decision order."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (scenario.n_regions,):
        raise ModelDomainError("weights must have shape (n,)")
    problem = WindowProblem(scenario, weights, scenario.x0, 0, profile.controls)
    return problem(profile.controls.ravel())[1]


# ---------------------------------------------------------------------------
# Windowed welfare problems
# ---------------------------------------------------------------------------


class WindowProblem:
    """Weighted-welfare objective over a time window with frozen regions.

    ``controls`` is the window's (n, steps, 2) control array; its length
    sets ``steps``. Decision variables are the controls of
    ``free_regions`` (default: all) over the ``steps`` steps starting at
    absolute step ``t0`` from state ``x0``; every other region follows its
    rows of ``controls``. The objective value is the weighted welfare over
    the window and the gradient is the exact adjoint restricted to the
    free coordinates.
    """

    def __init__(
        self,
        scenario: Scenario,
        weights: np.ndarray,
        x0: RiceState,
        t0: int,
        controls: np.ndarray,
        free_regions=None,
    ):
        n = scenario.n_regions
        self.scenario = scenario
        self.weights = np.asarray(weights, dtype=float)
        self.x0_vec = x0.to_vector()
        self.t0 = t0
        self.controls = np.asarray(controls, dtype=float)
        if self.controls.ndim != 3 or self.controls.shape[::2] != (n, 2):
            raise ModelDomainError("controls must have shape (n, steps, 2)")
        self.steps = steps = self.controls.shape[1]
        if free_regions is None:
            free_regions = np.arange(n)
        self.free_regions = np.asarray(free_regions, dtype=int)
        if t0 < 0 or t0 + steps > scenario.exo.length:
            raise ModelDomainError("window exceeds exogenous path coverage")
        lo = np.concatenate([scenario.control_lower()] * steps)
        hi = np.concatenate([scenario.control_upper()] * steps)
        self.lower = np.tile(lo, self.free_regions.size)
        self.upper = np.tile(hi, self.free_regions.size)

    def embed(self, z: np.ndarray) -> np.ndarray:
        """Full (n, steps, 2) controls with z written into the free rows."""
        full = self.controls.copy()
        full[self.free_regions] = z.reshape(self.free_regions.size, self.steps, 2)
        return full

    def extract(self, full: np.ndarray) -> np.ndarray:
        """Flat decision vector of the free rows of a full control array."""
        return np.asarray(full, dtype=float)[self.free_regions].ravel().copy()

    def __call__(self, z: np.ndarray):
        s_tn, mu_tn = _time_major(self.embed(z))
        f, gs, gmu, _, _ = _adjoint_arrays(
            self.scenario,
            self.x0_vec,
            s_tn,
            mu_tn,
            self.weights,
            self.t0,
            regions=self.free_regions,
        )
        return f, np.stack([gs, gmu], axis=-1).transpose(1, 0, 2).ravel()


# ---------------------------------------------------------------------------
# Lockstep solves
# ---------------------------------------------------------------------------


def _member_values(problems, points) -> list:
    """``[problem(z) for problem, z in zip(problems, points)]`` in one sweep.

    The window problems share their scenario, start state and ``t0``; each
    keeps its own controls, weight row and free regions. One member-batched
    rollout and adjoint sweep answers them all, and member k's value and
    gradient are the same bits in a batch of any size, a batch of one
    included.
    """
    first = problems[0]
    full = np.array([p.embed(z) for p, z in zip(problems, points)])
    weights = np.array([p.weights for p in problems])
    f, gs, gmu, _, _ = _adjoint_arrays(
        first.scenario, first.x0_vec, *_time_major(full), weights, first.t0
    )
    grads = np.stack([gs, gmu], axis=-1)
    return [
        (float(f[k]), grads[:, k, p.free_regions].transpose(1, 0, 2).ravel())
        for k, p in enumerate(problems)
    ]


def _round_values(problems, points) -> list:
    """:func:`_member_values`, or, if the batch breaks the model, each member
    evaluated alone: its value, or the breakdown that it raises."""
    try:
        return _member_values(problems, points)
    except ModelBreakdownError:
        pass
    values = []
    for problem, z in zip(problems, points):
        try:
            values.append(_member_values([problem], [z])[0])
        except ModelBreakdownError as exc:
            values.append(exc)
    return values


class _Aborted(Exception):
    """Stops a lockstep member after another member's solve failed."""


def _lockstep_cpus() -> tuple:
    """The calling thread's CPUs, and the one CPU that a lockstep runs on.

    Only one of a lockstep's threads runs at a time, and every evaluation
    hands over from one thread to another. On one CPU a handover is a
    context switch; a thread woken on an idle CPU waits for that CPU to
    wake instead, which on a 2-vCPU VM left perfbench's ``rhfa`` job idle
    for a third of its wall time or more. Concurrent processes spread over
    the allowed CPUs by process id. Both are None where the platform cannot
    pin threads.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None, None
    caller = os.sched_getaffinity(0)
    return caller, {sorted(caller)[os.getpid() % len(caller)]}


def _pin(cpus) -> None:
    """Pin the calling thread to ``cpus``, where the platform allows it."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass  # the lockstep runs unpinned, only slower


def _lockstep(problems, lowers, uppers, inits, options) -> list:
    """``[maximize(p, lo, hi, x, options) for ...]``, evaluated in rounds.

    Each window problem runs the unchanged :func:`maximize` in its own
    thread. Its objective posts the point and waits on its own lock. Once
    every member still solving has posted, the calling thread answers them
    all with one :func:`_round_values` call, in member order. A round waits
    for every live member, so each member's iterates depend only on its
    inputs, never on thread scheduling: its report is that of
    :func:`maximize` with each evaluation a batch of one. A batch that
    breaks the model is evaluated again one member at a time, so only the
    members that broke it get ``maximize``'s penalty. Any other exception
    is raised once every thread has ended. The calling thread and the
    members share one CPU (:func:`_lockstep_cpus`); the caller's CPUs are
    restored on return.
    """
    count = len(problems)
    if not count:
        return []
    posted, answers = [None] * count, [None] * count
    reports, errors = [None] * count, [None] * count
    turns = [threading.Lock() for _ in problems]
    for turn in turns:
        turn.acquire()
    complete, guard = threading.Lock(), threading.Lock()
    complete.acquire()
    waiting = [count]  # members yet to post or end in this round
    caller, cpu = _lockstep_cpus()

    def arrive():
        with guard:
            waiting[0] -= 1
            if not waiting[0]:
                complete.release()

    def member(k):
        _pin(cpu)

        def objective(z):
            posted[k] = z
            arrive()
            turns[k].acquire()
            if isinstance(answers[k], Exception):
                raise answers[k]
            return answers[k]

        try:
            reports[k] = maximize(objective, lowers[k], uppers[k], inits[k], options)
        except Exception as exc:
            errors[k] = exc
        finally:
            arrive()

    threads = [threading.Thread(target=member, args=(k,), daemon=True) for k in range(count)]
    failure = None
    _pin(cpu)
    try:
        for thread in threads:
            thread.start()
        while True:
            complete.acquire()
            failure = failure or next((e for e in errors if e is not None), None)
            live = [k for k in range(count) if posted[k] is not None]
            if not live:
                break
            # Every live member now waits on its turn and every other one
            # has ended, so no thread touches the count until the turns are
            # given.
            waiting[0] = len(live)
            points = [posted[k] for k in live]
            for k in live:
                posted[k] = None
            if failure is None:
                try:
                    values = _round_values([problems[k] for k in live], points)
                except BaseException as exc:  # raised below, once every member has ended
                    failure = exc
            if failure is not None:
                values = [_Aborted() for _ in live]
            for k, value in zip(live, values):
                answers[k] = value
                turns[k].release()
        for thread in threads:
            thread.join()
    finally:
        _pin(caller)
    if failure is not None:
        raise failure
    return reports
