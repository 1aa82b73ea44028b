"""Cooperative solution concepts: welfare maximization, Pareto frontier, MPC.

All solvers maximize discounted welfare sums over the scenario's control
box using the adjoint-gradient trajectory optimizer. The frontier
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
from .noncooperative import _best_responses, _check_lengths, _receding
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

# Resolution floor of the frontier pipeline, as a relative gap on cluster
# welfare. Two effects each leave gaps near 1e-6 relative: the quasi-Newton
# line search stalls once objective differences fall to about 1e-6 of the
# scalarized welfare regardless of the requested tolerances, and the
# own-welfare saving polish moves the other cluster by a comparable amount
# through the output and emissions channel. Genuine frontier defects show up
# around 1e-3 relative, three orders of magnitude above this floor.
AUDIT_REL_TOL = 3e-6


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


def solve_swm(
    scenario: Scenario,
    options: SolveOptions | None = None,
    init: np.ndarray | None = None,
) -> SwmResult:
    """Maximize global welfare under the scenario's (Negishi) weights.

    Defaults to a 4-way multistart from the standard cold start. L-BFGS-B
    runs on the controls divided by ``_curvature_scale(problem)``, which
    makes every control about as curved as the most curved one in its
    column: the late abatement rates, whose cost is nearly flat, and the
    rates of light-weight regions and late, heavily discounted steps. At
    T=120 the solves from 44 jittered cold starts all end on the gradient
    test within 6e-9 relative of each other in welfare, in 56 evaluations
    each on average; unscaled, each stopped 2-6e-6 short of the optimum at
    a point that depended on its start. ``report.x`` is in the controls'
    own units.
    """
    opts = options or SolveOptions(multistart=4)
    init = _start(scenario, init)
    problem = WindowProblem(scenario, scenario.weights, scenario.x0, 0, init)
    d = _curvature_scale(problem)

    def scaled(y):
        f, g = problem(d * y)
        return f, d * g

    report = maximize(scaled, problem.lower / d, problem.upper / d, init.ravel() / d, opts)
    report.x = d * report.x
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


def _polish_savings(scenario: Scenario, controls: np.ndarray) -> np.ndarray:
    """Re-solve each region's saving path against its own welfare.

    Saving coordinates of a near-zero-weight region carry gradient entries
    scaled by that weight, so the joint solve stalls on them long before
    its own tolerance; this pass finishes them in one Jacobi round: every
    region's own-welfare solve, with its abatement pinned, starts from
    ``controls`` and faces the others' ``controls``, and the n solves run
    in lockstep. A saving path touches other regions only through the
    owner's unabated emissions, and where the stall actually occurs the
    remaining cluster has already pushed the stalled cluster to full
    abatement, so the refinement is exact there and a resolution-level
    tie-break elsewhere.
    """
    results = _best_responses(scenario, ControlProfile(controls), pin_mu=True)
    return np.array([r.controls for r in results])


def solve_pareto_point(
    scenario: Scenario,
    p: float,
    options: SolveOptions | None = None,
    init: np.ndarray | None = None,
) -> ParetoPoint:
    """Maximize p * W_developed + (1-p) * W_developing.

    The joint solve is followed by a per-region refinement of the saving
    paths; see ``_polish_savings``.
    """
    opts = options or SolveOptions(multistart=2)
    init = _start(scenario, init)
    problem = WindowProblem(scenario, pareto_weights(scenario, p), scenario.x0, 0, init)
    report = maximize(problem, problem.lower, problem.upper, init.ravel(), opts)
    profile = ControlProfile(_polish_savings(scenario, problem.embed(report.x)))
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
    options: SolveOptions | None = None,
) -> FrontierResult:
    """Trace the developed/developing frontier over a grid of p values.

    One chain runs left to right, each point warm-started from the last
    solved one. The first solved point is the chain's only cold start, so
    it is solved once more from the second point's controls, keeping the
    better scalarized objective: a cold solve at p = 0 stalls on the
    zero-weight cluster and is dominated in both clusters (by 8.4e-6 at
    T=120), while re-solving a warm-started point gains less than 1e-6.
    A grid value whose solve raised a :class:`RiceGameError` (a domain
    error or a model breakdown) is recorded in ``failures`` with its error;
    any other exception propagates. Every pair of points is audited for
    dominance at ``AUDIT_REL_TOL``, the measured resolution floor of the
    solve-and-polish pipeline on this problem family.
    """
    if p_grid is None:
        p_grid = np.linspace(0.0, 1.0, 21)
    opts = options or SolveOptions(multistart=2)

    points: list[ParetoPoint] = []
    failures = []
    init = None
    for p in np.asarray(p_grid, dtype=float):
        try:
            point = solve_pareto_point(scenario, p, opts, init=init)
        except RiceGameError as exc:  # recorded, scan continues
            failures.append((float(p), f"{type(exc).__name__}: {exc}"))
            continue
        points.append(point)
        init = point.profile.controls
    if len(points) > 1:
        again = solve_pareto_point(
            scenario, points[0].p, opts, init=points[1].profile.controls
        )
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
        report = maximize(problem, problem.lower, problem.upper, warm.ravel())
        objs.append(report.objective)
        inits.append(report.initial_objective)
        return problem.embed(report.x)

    cold = default_initial_profile(scenario, t_rh + 1)
    profile, trajectory = _receding(scenario, t_sim, plan, cold)
    return MpcResult(profile, trajectory, np.array(objs), np.array(inits))
