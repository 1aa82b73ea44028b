"""Box-constrained trajectory optimization with exact adjoint gradients.

The decision vector flattens a :class:`~rice_game.model.ControlProfile` in
region-major, time-minor, [s, mu] order. Welfare is maximized by running a
projected quasi-Newton method (the L-BFGS-B engine from scipy) on the
negated, scaled objective. Gradients come from the model's hand-derived
discrete adjoint sweep, which matches the rollout step by step.
"""

from __future__ import annotations

import math
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

    ``objective_log`` holds the unscaled objective at the initial point and
    every accepted iterate of the winning start; it is nondecreasing.
    ``termination`` is one of ``gradient``, ``objective-change``,
    ``max-iter`` or ``line-search-failure``.
    """

    x: np.ndarray
    objective: float
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
    if profile.n_regions != scenario.n_regions:
        raise ModelDomainError("profile region count does not match scenario")
    problem = WindowProblem(scenario, weights, scenario.x0, 0, profile.horizon + 1)
    return problem(profile.controls.ravel())[1]


# ---------------------------------------------------------------------------
# Windowed welfare problems
# ---------------------------------------------------------------------------


class WindowProblem:
    """Weighted-welfare objective over a time window with frozen regions.

    Decision variables are the controls of ``free_regions`` over the
    ``steps`` steps starting at absolute step ``t0`` from state ``x0``;
    all other regions follow ``fixed`` (a (n, steps, 2) array). The
    objective value is the weighted welfare over the window and the
    gradient is the exact adjoint restricted to the free coordinates.
    """

    def __init__(
        self,
        scenario: Scenario,
        weights: np.ndarray,
        x0: RiceState,
        t0: int,
        steps: int,
        free_regions=None,
        fixed: np.ndarray | None = None,
    ):
        n = scenario.n_regions
        self.scenario = scenario
        self.weights = np.asarray(weights, dtype=float)
        self.x0_vec = x0.to_vector()
        self.t0 = t0
        self.steps = steps
        if free_regions is None:
            free_regions = np.arange(n)
        self.free_regions = np.asarray(free_regions, dtype=int)
        if fixed is None:
            fixed = np.zeros((n, steps, 2))
        fixed = np.asarray(fixed, dtype=float)
        if fixed.shape != (n, steps, 2):
            raise ModelDomainError("fixed controls must have shape (n, steps, 2)")
        self.fixed = fixed
        if t0 < 0 or t0 + steps > scenario.exo.length:
            raise ModelDomainError("window exceeds exogenous path coverage")
        lo = np.concatenate([scenario.control_lower()] * steps)
        hi = np.concatenate([scenario.control_upper()] * steps)
        self.lower = np.tile(lo, self.free_regions.size)
        self.upper = np.tile(hi, self.free_regions.size)

    def embed(self, z: np.ndarray) -> np.ndarray:
        """Full (n, steps, 2) controls with z written into the free rows."""
        full = self.fixed.copy()
        full[self.free_regions] = z.reshape(self.free_regions.size, self.steps, 2)
        return full

    def extract(self, full: np.ndarray) -> np.ndarray:
        """Flat decision vector of the free rows of a full control array."""
        return np.asarray(full, dtype=float)[self.free_regions].ravel().copy()

    def __call__(self, z: np.ndarray):
        full = self.embed(z)
        s_tn = np.ascontiguousarray(full[:, :, 0].T)
        mu_tn = np.ascontiguousarray(full[:, :, 1].T)
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
