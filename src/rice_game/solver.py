"""Box-constrained trajectory optimization with exact adjoint gradients.

The decision vector flattens a :class:`~rice_game.model.ControlProfile` in
region-major, time-minor, [s, mu] order. Welfare is maximized by running a
projected quasi-Newton method on the negated, scaled objective: scipy's
L-BFGS-B routine ``setulb``, which returns to its caller for every value
and gradient it needs. One driver, ``_lockstep``, answers the requests of
one or many solves in rounds, one member-batched evaluation per round;
:func:`maximize` is a single solve. Gradients come from the model's
hand-derived discrete adjoint sweep, which matches the rollout step by step.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np
import scipy

from .model import (
    ControlProfile,
    ModelBreakdownError,
    ModelDomainError,
    RiceState,
    Scenario,
    _adjoint_arrays,
    _check_covered,
    _time_major,
)


#: The call ``_minimize_lbfgsb`` makes: scipy 1.15's integer-task interface.
_SETULB = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"


def _load_lbfgsb():
    """scipy's compiled ``scipy.optimize._lbfgsb``, loaded from its file and
    not put in ``sys.modules``; ``import scipy`` has run scipy's library set-up.
    A ``setulb`` without the call ``_minimize_lbfgsb`` makes is an ImportError."""
    directory = os.path.join(scipy.__path__[0], "optimize")
    spec = importlib.machinery.PathFinder.find_spec("_lbfgsb", [directory])
    if spec is None:
        raise ImportError(
            f"cannot find scipy.optimize._lbfgsb in {directory}",
            name="scipy.optimize._lbfgsb",
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    doc = getattr(getattr(module, "setulb", None), "__doc__", None) or ""
    if not doc.startswith(_SETULB):
        raise ImportError(
            f"scipy.optimize._lbfgsb in {directory} has no {_SETULB}; scipy >= 1.15 has it",
            name="scipy.optimize._lbfgsb",
        )
    return module


# On its own: through scipy.optimize, its package init imports ~320 modules.
_lbfgsb = _load_lbfgsb()

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
#: L-BFGS-B's correction pairs and function evaluations per line search,
#: and the caps on the iterations and (scipy's default) the evaluations of
#: one solve.
_LBFGS_MEMORY = 20
_MAX_LINE_SEARCH = 40
_MAX_ITER = 2000
_MAX_FUN = 15000


@dataclass
class SolveOptions:
    """The options of :func:`~rice_game.cooperative.solve_swm`, which reads none.

    Every solve runs one start, from the caller's point. ``multistart`` is
    kept for callers that pass it, and 1 is its only value: the multistart
    was removed.
    """

    multistart: int = 1

    def __post_init__(self):
        if self.multistart != 1:
            raise ModelDomainError(
                f"multistart = {self.multistart!r}: the multistart was removed and 1 is "
                "its only value; every solve runs one start"
            )


@dataclass
class SolveReport:
    """Outcome of one :func:`maximize` call.

    ``objective`` is the objective at ``x``, the last value of the objective
    log. ``initial_objective`` is the objective at the caller's initial
    point (after clipping into the box), so callers need not evaluate it again.
    ``objective_log`` holds the unscaled objective at the initial point and
    every accepted iterate; it is nondecreasing.
    ``termination`` is one of ``gradient``, ``objective-change``,
    ``max-iter`` or ``line-search-failure``.
    """

    x: np.ndarray
    objective: float
    initial_objective: float
    iterations: int
    n_evaluations: int
    termination: str
    objective_log: np.ndarray


def _minimize_lbfgsb(fun, x, fg, lower, upper, callback):
    """Minimize with L-BFGS-B from ``x``, as scipy 1.17's ``_minimize_lbfgsb``.

    A generator: ``fg`` is ``(value, gradient)`` of the function to
    minimize at ``x``, and ``fun(x)`` is a generator that yields the points
    it needs and returns the same pair at ``x``. Like scipy's
    ``ScalarFunction`` it counts the start as an evaluation and calls
    ``fun`` at each point ``setulb`` asks for that differs from the last one
    evaluated; the count stops the run past ``_MAX_FUN``, and the iteration
    count at ``_MAX_ITER``. ``callback()`` runs after each iteration.
    Returns the final point, the iteration and evaluation counts, and the
    termination.
    """
    n, m = x.size, _LBFGS_MEMORY
    x = np.clip(x, lower, upper)
    finite_lo, finite_hi = ~np.isinf(lower), ~np.isinf(upper)
    nbd = np.where(finite_lo, np.where(finite_hi, 2, 1), np.where(finite_hi, 3, 0)).astype(np.int32)
    lower, upper = np.where(finite_lo, lower, 0.0), np.where(finite_hi, upper, 0.0)
    factr = _OBJ_REL_TOL / np.finfo(float).eps
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)

    # f and g are always the answer at ``seen``, the last point evaluated.
    # setulb reads g as float64 and writes neither, so one conversion per
    # answer serves every call until the next one.
    seen = x.copy()
    n_evaluations, iterations = 1, 0
    f, g = fg
    g = np.asarray(g, dtype=np.float64)
    while True:
        _lbfgsb.setulb(m, x, lower, upper, nbd, f, g, factr, _GRAD_TOL, wa, iwa, task,
                       lsave, isave, dsave, _MAX_LINE_SEARCH, ln_task)
        if task[0] == 3:  # f and g wanted at x
            if (x != seen).any():
                seen = x.copy()
                f, g = yield from fun(seen)
                g = np.asarray(g, dtype=np.float64)
                n_evaluations += 1
        elif task[0] == 1:  # a new iterate
            iterations += 1
            callback()
            if iterations >= _MAX_ITER:
                task[:] = 5, 504
            elif n_evaluations > _MAX_FUN:
                task[:] = 5, 502
        else:
            break

    if task[1] in (401, 503):
        termination = "gradient"
    elif task[1] == 402:
        termination = "objective-change"
    elif task[0] != 4 and (n_evaluations > _MAX_FUN or iterations >= _MAX_ITER):
        termination = "max-iter"
    else:
        termination = "line-search-failure"
    return x, iterations, n_evaluations, termination


def _ascent(lower, upper, init):
    """One box-constrained ascent, as a generator that yields each point to evaluate.

    It is sent the point's ``(value, gradient)``, or the
    :class:`ModelBreakdownError` that evaluating it raised, and returns the
    :class:`SolveReport`. Its iterates depend on those answers only. It
    runs L-BFGS-B from ``init`` on the negated objective scaled by
    1/|f(init)|, charges a point that breaks the model
    ``_BREAKDOWN_MARGIN``, and never ends below the initial objective.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    init = np.asarray(init, dtype=float)
    if init.ndim != 1:
        raise ModelDomainError("init must be a flat vector")
    if lower.shape != init.shape or upper.shape != init.shape:
        raise ModelDomainError("bounds and init must share one shape")
    if np.any(lower > upper):
        raise ModelDomainError("lower bound exceeds upper bound")
    if np.any(init < lower - 1e-12) or np.any(init > upper + 1e-12):
        raise ModelDomainError("init must lie within the bounds")
    init = np.clip(init, lower, upper)

    first = yield init
    if isinstance(first, ModelBreakdownError):
        raise first
    f0 = first[0]
    if not np.isfinite(f0):
        raise ModelDomainError("objective at init is not finite")
    scale = 1.0 / max(abs(f0), 1e-12)
    log, last = [f0], f0

    def fun(x):
        nonlocal last
        answer = yield x
        if isinstance(answer, ModelBreakdownError):
            f, g = -_BREAKDOWN_MARGIN / scale, np.zeros_like(x)
        else:
            f, g = answer
        last = f
        return -scale * f, -scale * np.asarray(g)

    # The start is the initial point, answered above: each point is evaluated once.
    fg = -scale * f0, -scale * np.asarray(first[1])
    x, iterations, n_evaluations, termination = yield from _minimize_lbfgsb(
        fun, init, fg, lower, upper, lambda: log.append(last)
    )
    # The objective at x is the value logged where setulb left it, not the
    # last point evaluated nor its scaled round trip. A run that ends below
    # the initial point returns it unchanged: the ascent guarantee.
    if log[-1] < f0:
        x, log = init.copy(), [f0]
    return SolveReport(
        x=x,
        objective=log[-1],
        initial_objective=f0,
        iterations=iterations,
        n_evaluations=n_evaluations,
        termination=termination,
        objective_log=np.asarray(log),
    )


def maximize(
    objective,
    lower: np.ndarray,
    upper: np.ndarray,
    init: np.ndarray,
) -> SolveReport:
    """Maximize ``objective`` over the box [lower, upper] from ``init``.

    ``objective(x)`` must return ``(value, gradient)``; a point at which it
    raises :class:`ModelBreakdownError` is penalized and the solve goes on.
    The problem is handed to the L-BFGS-B engine as minimization of the
    negated objective, scaled by 1/|f(init)| so tolerances behave uniformly
    across problems. The returned objective never falls below the initial one.
    """
    return _lockstep([objective], [lower], [upper], [init])[0]


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
        _check_covered(scenario, t0, steps)
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
        return f, _decision_order(gs, gmu)


def _curvature_scale(problem: WindowProblem) -> np.ndarray:
    """Diagonal scale ``d`` of the problem's decisions, in decision order.

    The log-utility term w_i * disc_t * L_i,t * log(c_i,t) makes the
    curvature along each control of region i at step t proportional to
    u = w_i * disc_t * L_i,t, and the abatement cost theta1 * mu**theta2
    adds a factor theta1 along each mu. Over the packaged scenario's 12
    regions and 121 steps u spans about 50x and u * theta1 about 2.5e7.
    Each saving rate gets ``2**round(-0.5 * log2(u / max u))`` and each mu
    the same with u * theta1, each max taken over the window's free rows,
    and 1 where the factor is <= 0. L-BFGS-B run on y = x / d sees every
    control about equally curved, and since d holds powers of two,
    x = d * y, the bounds and the starts map back bit for bit.
    """
    sc, free = problem.scenario, problem.free_regions
    window = slice(problem.t0, problem.t0 + problem.steps)
    u = (problem.weights * sc._disc[window] * sc.exo.labor[window])[:, free].T
    d = np.ones(u.shape + (2,))
    for k, factor in enumerate((u, u * sc._theta1[window, free].T)):
        positive = factor > 0.0
        if positive.any():
            ratio = factor[positive] / factor.max()
            d[..., k][positive] = np.exp2(np.round(-0.5 * np.log2(ratio)))
    return d.ravel()


def _decision_order(gs: np.ndarray, gmu: np.ndarray) -> np.ndarray:
    """Gradients (steps, [B,] r) of s and mu as flat decision vectors, (r*steps*2,)
    or one row per member, (B, r*steps*2)."""
    axes = (*range(1, gs.ndim), 0)
    out = np.empty(gs.shape[1:] + gs.shape[:1] + (2,))
    out[..., 0] = gs.transpose(axes)
    out[..., 1] = gmu.transpose(axes)
    return out.reshape(gs.shape[1:-1] + (-1,))


# ---------------------------------------------------------------------------
# Lockstep solves
# ---------------------------------------------------------------------------


def _member_values(problems, points) -> list:
    """``[problem(z) for problem, z in zip(problems, points)]`` in one sweep.

    The window problems share their scenario, start state, ``t0`` and the
    number of free regions; each keeps its own controls, weight row and
    free regions. One member-batched rollout and adjoint sweep answers them
    all, forming only each member's own gradient columns, and member k's
    value and gradient are the same bits in a batch of any size. A batch of
    one is the problem's own unbatched call, which costs less than a member
    sweep of one; the two paths share every equation of the engine.
    """
    if len(problems) == 1:
        return [problems[0](points[0])]
    first = problems[0]
    # Every member's controls, time-major, then one write of every member's
    # free rows: (2, steps, B, n) takes (B, r, steps, 2) at [:, :, k, free[k]].
    controls = _time_major(np.array([p.controls for p in problems]))
    free = np.array([p.free_regions for p in problems])
    members = np.arange(len(problems))[:, None]
    z = np.array(points).reshape(free.shape + (first.steps, 2))
    controls[:, :, members, free] = z.transpose(3, 2, 0, 1)
    weights = np.array([p.weights for p in problems])
    f, gs, gmu, _, _ = _adjoint_arrays(
        first.scenario, first.x0_vec, *controls, weights, first.t0, regions=free
    )
    return list(zip(f.tolist(), _decision_order(gs, gmu)))


def _round_values(problems, points) -> list:
    """:func:`_member_values`, or, if the batch breaks the model, each member
    evaluated alone: its value, or the breakdown that it raises. A batch of
    one is evaluated once."""
    try:
        return _member_values(problems, points)
    except ModelBreakdownError as exc:
        if len(problems) == 1:
            return [exc]
    return [_round_values([p], [z])[0] for p, z in zip(problems, points)]


def _lockstep(problems, lowers, uppers, inits) -> list:
    """The :class:`SolveReport` of one :func:`_ascent` of each ``problems[k]``
    from ``inits[k]`` over its box, all driven from the calling thread.

    A round collects the next point of every solve still running and
    answers them all with one :func:`_round_values` call, in member order. A
    batch that breaks the model is evaluated again one member at a time, so
    only the members that broke it are penalized. A one-member round calls
    its problem directly, so any callable that returns ``(value, gradient)``
    can be solved alone. Any other exception closes every solve and is
    raised at once.
    """
    ascents = [_ascent(*args) for args in zip(lowers, uppers, inits)]
    reports, points = [None] * len(ascents), {}

    def advance(k, answer):
        try:
            points[k] = ascents[k].send(answer)
        except StopIteration as done:
            reports[k] = done.value
            points.pop(k, None)

    try:
        for k in range(len(ascents)):
            advance(k, None)
        while points:
            live = list(points)
            values = _round_values([problems[k] for k in live], [points[k] for k in live])
            for k, value in zip(live, values):
                advance(k, value)
    finally:
        for ascent in ascents:
            ascent.close()
    return reports
