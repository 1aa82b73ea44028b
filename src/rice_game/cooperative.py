"""Cooperative solution concepts: welfare maximization, Pareto frontier, MPC.

All solvers maximize discounted welfare sums over the scenario's control
box using the adjoint-gradient trajectory optimizer. The frontier
scalarizes the developed/developing cluster welfares; the receding-horizon
controller re-solves a short window at every step and plays its first
controls.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ControlProfile,
    ModelDomainError,
    Scenario,
    Trajectory,
    regional_welfare,
    simulate,
    step,
)
from .noncooperative import _own_solve, _shifted
from .solver import SolveOptions, SolveReport, WindowProblem, maximize

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
    ``failures`` records grid values whose solve raised, with the message.
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

    Defaults to a 4-way multistart from the standard cold start.
    """
    opts = options or SolveOptions(multistart=4)
    init = _start(scenario, init)
    problem = WindowProblem(scenario, scenario.weights, scenario.x0, 0, init)
    report = maximize(problem, problem.lower, problem.upper, init.ravel(), opts)
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


def _polish_savings(
    scenario: Scenario, controls: np.ndarray, options: SolveOptions
) -> np.ndarray:
    """Re-solve each region's saving path against its own welfare.

    Saving coordinates of a near-zero-weight region carry gradient entries
    scaled by that weight, so the joint solve stalls on them long before
    its own tolerance; this pass finishes them one region at a time by an
    own-welfare solve with that region's abatement pinned. A saving path
    touches other regions only through the owner's unabated emissions, and
    where the stall actually occurs the remaining cluster has already
    pushed the stalled cluster to full abatement, so the refinement is
    exact there and a resolution-level tie-break elsewhere.
    """
    sub = dataclasses.replace(options, multistart=1)
    for i in range(scenario.n_regions):
        controls, _ = _own_solve(scenario, i, scenario.x0, 0, controls, sub, pin_mu=True)
    return controls


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
    profile = ControlProfile(_polish_savings(scenario, problem.embed(report.x), opts))
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
    A grid value whose solve raised is recorded in ``failures`` with its
    error. Every pair of points is audited for dominance at
    ``AUDIT_REL_TOL``, the measured resolution floor of the
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
        except Exception as exc:  # noqa: BLE001 - recorded, scan continues
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
    options: SolveOptions | None = None,
) -> MpcResult:
    """Receding-horizon welfare maximization.

    At each step t the window [t, t + t_rh] is re-solved from the current
    state, warm-started from the previous window's solution shifted by one
    (last entry repeated); only the first controls are played. The played
    window objective never falls below the shifted initializer's. A played
    step that breaks the model raises :class:`ModelBreakdownError`, with its
    step and region; no truncated run is returned.
    """
    if t_sim < 0 or t_rh < 1:
        raise ModelDomainError("t_sim must be >= 0 and t_rh >= 1")
    if t_sim + t_rh + 1 > scenario.exo.length:
        raise ModelDomainError(
            "exogenous paths do not cover t_sim + t_rh; extend the scenario"
        )
    opts = options or SolveOptions()
    played = np.empty((scenario.n_regions, t_sim + 1, 2))
    objs = np.empty(t_sim + 1)
    inits = np.empty(t_sim + 1)
    x = scenario.x0
    prev = default_initial_profile(scenario, t_rh + 1)
    for t in range(t_sim + 1):
        problem = WindowProblem(scenario, scenario.weights, x, t, prev)
        report = maximize(problem, problem.lower, problem.upper, prev.ravel(), opts)
        full = problem.embed(report.x)
        objs[t] = report.objective
        inits[t] = report.initial_objective
        played[:, t, :] = full[:, 0, :]
        x, _ = step(t, x, full[:, 0, :], scenario)
        prev = _shifted(full)

    profile = ControlProfile(played)
    traj = simulate(scenario.x0, profile, scenario)
    return MpcResult(
        profile=profile,
        trajectory=traj,
        window_objectives=objs,
        window_initial_objectives=inits,
    )
