"""Cooperative solution concepts: welfare maximization, Pareto frontier, MPC.

All solvers maximize discounted welfare sums over the scenario's control
box using the adjoint-gradient trajectory optimizer, each through one
curvature-scaled solve (``_scaled_solve``) from one start. The frontier
scalarizes the developed/developing cluster welfares; the receding-horizon
controller re-solves a short window at every step and plays its first
controls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ControlProfile,
    ModelDomainError,
    RiceGameError,
    Scenario,
    Trajectory,
    regional_welfare,
    simulate,
)
from .noncooperative import _check_lengths, _receding
from .solver import SolveOptions, SolveReport, WindowProblem, _curvature_scale, maximize

__all__ = [
    "SwmResult",
    "ParetoPoint",
    "FrontierResult",
    "MpcResult",
    "default_initial_profile",
    "solve_swm",
    "pareto_weights",
    "solve_pareto_point",
    "pareto_frontier",
    "mpc_rice",
]

# Resolution floor of the frontier, as a relative gap on cluster welfare.
# Each point stops short of its scalarized optimum by what the quasi-Newton
# stop tests leave. On the packaged scenario's 21-point frontiers over
# p = 0.001 ... 0.999 and p = 0 ... 1 no pair of points gains in both
# clusters at all: the largest mutual gain measured -3.6e-8 and -2.9e-8. A
# cold p = 0 point that is not solved again is beaten in both clusters by
# 2.7e-6, nine times this tolerance (see ``pareto_frontier``).
AUDIT_REL_TOL = 3e-7


@dataclass
class SwmResult:
    """Social-welfare maximization outcome."""

    profile: ControlProfile
    trajectory: Trajectory
    welfare: float
    regional_welfare: np.ndarray
    report: SolveReport


@dataclass
class ParetoPoint:
    """One scalarization point of the developed/developing frontier."""

    p: float
    profile: ControlProfile
    welfare_developed: float
    welfare_developing: float
    terminal_t_at: float
    report: SolveReport


@dataclass
class FrontierResult:
    """All frontier points plus the non-domination audit.

    ``dominance_violations`` lists index pairs (i, j) where point i beats
    point j in both cluster welfares by more than the audit tolerance;
    ``failures`` records grid values whose solve raised a
    :class:`RiceGameError`, with the message.
    """

    points: list
    failures: list = field(default_factory=list)
    dominance_violations: list = field(default_factory=list)


@dataclass
class MpcResult:
    """Receding-horizon trajectory with per-window solver diagnostics."""

    profile: ControlProfile
    trajectory: Trajectory
    window_objectives: np.ndarray
    window_initial_objectives: np.ndarray


def default_initial_profile(scenario: Scenario, steps: int) -> np.ndarray:
    """Standard cold start: s = 0.25 and mu = 0.1, clipped into the box."""
    lo, hi = scenario.control_lower(), scenario.control_upper()
    u = np.clip(np.array([0.25, 0.1]), lo, hi)
    full = np.empty((scenario.n_regions, steps, 2))
    full[:, :, :] = u
    return full


def _start(scenario: Scenario, init: np.ndarray | None) -> np.ndarray:
    """``init``, checked to be (n, T+1, 2) controls, or the standard cold start."""
    shape = (scenario.n_regions, scenario.horizon + 1, 2)
    if init is None:
        return default_initial_profile(scenario, shape[1])
    if np.shape(init) != shape:
        raise ModelDomainError("init must have shape (n, horizon + 1, 2)")
    return np.asarray(init, dtype=float)


def _scaled_solve(problem: WindowProblem, init: np.ndarray) -> SolveReport:
    """:func:`maximize` of ``problem`` from the flat ``init``, run on the
    decisions divided by ``_curvature_scale(problem)``; ``report.x`` is in the
    controls' own units.

    The scale makes every control about as curved as the most curved one in
    its column: the late abatement rates, whose cost is nearly flat, and the
    rates of light-weight regions and late, heavily discounted steps. Since
    it holds powers of two, the bounds, the start and the optimum map back
    bit for bit.
    """
    d = _curvature_scale(problem)

    def scaled(y):
        f, g = problem(d * y)
        return f, d * g

    report = maximize(scaled, problem.lower / d, problem.upper / d, init / d)
    report.x = d * report.x
    return report


def solve_swm(
    scenario: Scenario,
    options: SolveOptions | None = None,
    init: np.ndarray | None = None,
) -> SwmResult:
    """Maximize global welfare under the scenario's (Negishi) weights.

    One scaled solve (``_scaled_solve``) from ``init``, by default the
    standard cold start. At T=120 the solves from 44 jittered cold starts
    all end on the gradient test within 6e-9 relative of each other in
    welfare, in 56 evaluations each on average, so one start settles the
    optimum; unscaled, each stopped 2-6e-6 short of it at a point that
    depended on its start. ``options`` is kept for callers that pass it and
    is not read; :class:`SolveOptions` holds only ``multistart=1``.
    """
    init = _start(scenario, init)
    problem = WindowProblem(scenario, scenario.weights, scenario.x0, 0, init)
    report = _scaled_solve(problem, init.ravel())
    profile = ControlProfile(problem.embed(report.x))
    traj = simulate(scenario.x0, profile, scenario)
    return SwmResult(
        profile=profile,
        trajectory=traj,
        welfare=report.objective,
        regional_welfare=regional_welfare(traj, scenario),
        report=report,
    )


def pareto_weights(scenario: Scenario, p: float) -> np.ndarray:
    """Scalarization weights: p on each developed region, 1-p on the rest."""
    if not 0.0 <= p <= 1.0:
        raise ModelDomainError("p must lie in [0, 1]")
    return np.where(scenario.developed, p, 1.0 - p)


def solve_pareto_point(
    scenario: Scenario,
    p: float,
    init: np.ndarray | None = None,
) -> ParetoPoint:
    """Maximize p * W_developed + (1-p) * W_developing in one scaled solve
    (``_scaled_solve``) from ``init``, by default the standard cold start.

    The profile is the solve's exit, so ``report.objective`` is its
    scalarized welfare. At p = 0 or p = 1 one cluster weighs nothing and the
    point is only weakly Pareto-optimal: the zero-weight cluster's welfare
    may still rise at no cost to the other's.
    """
    init = _start(scenario, init)
    problem = WindowProblem(scenario, pareto_weights(scenario, p), scenario.x0, 0, init)
    report = _scaled_solve(problem, init.ravel())
    profile = ControlProfile(problem.embed(report.x))
    traj = simulate(scenario.x0, profile, scenario)
    welfare = regional_welfare(traj, scenario)
    return ParetoPoint(
        p=float(p),
        profile=profile,
        welfare_developed=float(welfare[scenario.developed].sum()),
        welfare_developing=float(welfare[~scenario.developed].sum()),
        terminal_t_at=float(traj.states[-2, 0]),
        report=report,
    )


def pareto_frontier(
    scenario: Scenario,
    p_grid: np.ndarray | None = None,
) -> FrontierResult:
    """Trace the developed/developing frontier over a grid of p values.

    One chain runs left to right, each point warm-started from the last
    solved one. The first solved point is the chain's only cold start, so
    it is solved once more from the second point's controls, keeping the
    better scalarized objective: at T=120 a cold solve at p = 0 is beaten
    in both clusters by the p = 0.05 point warm-started from it, by 2.7e-6
    relative, and after its re-solve by neither (largest mutual gain
    -2.9e-8). A grid value whose solve raised a :class:`RiceGameError` (a
    domain error or a model breakdown) is recorded in ``failures`` with its
    error; any other exception propagates. Every pair of points is audited
    for dominance at ``AUDIT_REL_TOL``, the measured resolution floor of
    the point solves on this problem family.
    """
    if p_grid is None:
        p_grid = np.linspace(0.0, 1.0, 21)

    points: list[ParetoPoint] = []
    failures = []
    init = None
    for p in np.asarray(p_grid, dtype=float):
        try:
            point = solve_pareto_point(scenario, p, init=init)
        except RiceGameError as exc:  # recorded, scan continues
            failures.append((float(p), f"{type(exc).__name__}: {exc}"))
            continue
        points.append(point)
        init = point.profile.controls
    if len(points) > 1:
        again = solve_pareto_point(scenario, points[0].p, init=points[1].profile.controls)
        if again.report.objective > points[0].report.objective:
            points[0] = again

    violations = []
    for (a, pa), (b, pb) in itertools.permutations(enumerate(points), 2):
        gain_dev = pa.welfare_developed - pb.welfare_developed
        gain_devg = pa.welfare_developing - pb.welfare_developing
        if (
            gain_dev > AUDIT_REL_TOL * abs(pb.welfare_developed)
            and gain_devg > AUDIT_REL_TOL * abs(pb.welfare_developing)
        ):
            violations.append((a, b))
    return FrontierResult(points=points, failures=failures, dominance_violations=violations)


def mpc_rice(
    scenario: Scenario,
    t_sim: int,
    t_rh: int,
) -> MpcResult:
    """Receding-horizon welfare maximization.

    At each step t the window [t, t + t_rh] is re-solved from the current
    state, warm-started from the previous window's solution shifted by one
    (last entry repeated); only the first controls are played. The played
    window objective never falls below the shifted initializer's. A played
    step that breaks the model raises :class:`ModelBreakdownError`, with its
    step and region; no truncated run is returned.
    """
    _check_lengths(scenario, t_sim, t_rh, t_rh + 1)
    objs, inits = [], []

    def plan(t, x, warm, last):
        problem = WindowProblem(scenario, scenario.weights, x, t, warm)
        report = _scaled_solve(problem, warm.ravel())
        objs.append(report.objective)
        inits.append(report.initial_objective)
        return problem.embed(report.x)

    cold = default_initial_profile(scenario, t_rh + 1)
    profile, trajectory = _receding(scenario, t_sim, plan, cold)
    return MpcResult(profile, trajectory, np.array(objs), np.array(inits))
