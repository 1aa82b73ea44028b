"""Non-cooperative play: best responses, open-loop Nash, feedback horizon play.

The recursive best-response algorithm starts from the caller's profile
(the paper's is the cooperative optimum) and repeats simultaneous (Jacobi)
rounds in which every region maximizes its own welfare against the
others' previous-round controls. A candidate profile earns an
epsilon-Nash certificate when no region can improve its welfare by more
than epsilon (relative) through unilateral deviation. The
receding-horizon feedback variant plays the caller's first controls, then
re-plans a short window every step against opponents frozen at theirs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ControlProfile,
    ModelDomainError,
    RiceState,
    Scenario,
    Trajectory,
    _adjoint_arrays,
    _time_major,
    simulate,
    step,
)
from .solver import (
    _GRAD_TOL,
    SolveOptions,
    SolveReport,
    WindowProblem,
    _pool_map,
    maximize,
)

__all__ = [
    "BestResponseResult",
    "Episode",
    "RbaResult",
    "NeCertificate",
    "RhfaResult",
    "best_response",
    "rba_dg",
    "verify_epsilon_ne",
    "rhfa_dg",
]

#: Solver terminations after which a best response counts as converged.
_CONVERGED_TERMINATIONS = ("gradient", "objective-change")

#: :func:`rba_dg` stops after the first round whose largest Nash residual is
#: at most ``_NASH_TOL`` and not below ``_RESIDUAL_STALL`` times the previous
#: round's: play has stalled at what the inner solves resolve.
_NASH_TOL = 10 * _GRAD_TOL
_RESIDUAL_STALL = 0.5


@dataclass
class BestResponseResult:
    """Region i's welfare-maximizing controls against a fixed profile."""

    region: int
    controls: np.ndarray
    welfare: float
    report: SolveReport


@dataclass
class Episode:
    """One round: the updated profile, its distances to the previous one, and
    each region's first-order Nash residual (see :func:`_nash_residual`)."""

    index: int
    profile: np.ndarray
    welfare: np.ndarray
    distance_inf: float
    distance_2: float
    nash_residual: np.ndarray


@dataclass
class RbaResult:
    """Recursive best-response outcome with the full episode log."""

    profile: ControlProfile
    trajectory: Trajectory
    episodes: list
    converged: bool


@dataclass
class NeCertificate:
    """Unilateral-deviation audit of a candidate equilibrium.

    ``epsilon`` is the largest relative welfare gain any region can
    secure by best-responding to the candidate. ``nash_residual`` is each
    region's first-order Nash residual at the candidate. ``terminations``
    holds each region's best-response termination reason. ``converged`` is
    true only when every best response stopped on its gradient or
    objective-change test; otherwise a solve cut short may understate
    ``epsilon``.
    """

    welfare: np.ndarray
    best_response_welfare: np.ndarray
    relative_gain: np.ndarray
    epsilon: float
    nash_residual: np.ndarray
    terminations: list
    converged: bool


@dataclass
class RhfaResult:
    """Receding-horizon feedback play outcome."""

    profile: ControlProfile
    trajectory: Trajectory
    t_rh: int


def _own_solve(
    scenario: Scenario,
    region: int,
    x0: RiceState,
    t0: int,
    controls: np.ndarray,
    options: SolveOptions,
    pin_mu: bool = False,
) -> tuple[np.ndarray, SolveReport]:
    """Maximize ``region``'s own welfare over the window of ``controls``.

    The window starts at absolute step ``t0`` from state ``x0``.
    ``controls`` (n, steps, 2) holds every region's controls over the
    window: the others follow their rows, and the solve warm-starts from
    ``region``'s own rows. ``pin_mu`` holds ``region``'s abatement at its
    rows' values through degenerate bounds, so only its saving moves.
    Returns the full (n, steps, 2) controls with ``region``'s rows
    solved, and the solver report.
    """
    weights = np.zeros(scenario.n_regions)
    weights[region] = 1.0
    problem = WindowProblem(scenario, weights, x0, t0, controls, free_regions=[region])
    init = problem.extract(controls)
    lower, upper = problem.lower, problem.upper
    if pin_mu:
        lower, upper = lower.copy(), upper.copy()
        lower[1::2] = upper[1::2] = init[1::2]
    report = maximize(problem, lower, upper, init, options)
    return problem.embed(report.x), report


def _nash_residual(scenario: Scenario, controls: np.ndarray) -> tuple:
    """Regional welfare and first-order Nash residual at (n, T+1, 2) ``controls``.

    Returns two (n,) arrays: each region's welfare W_i (the same bits as
    ``regional_welfare`` of the rollout) and its residual, ``max|u_i -
    P(u_i + g_i / |W_i|)|`` over region i's controls u_i, where g_i is the
    gradient of W_i with respect to u_i and P projects onto the control
    box: the projected gradient that :func:`maximize`'s stop test reads,
    with its 1/|f| scaling. A residual is zero exactly where its region has
    no first-order unilateral improvement. Both come from one adjoint
    sweep with one unit-weight row per region.
    """
    n = scenario.n_regions
    welfare, gs, gmu, _, _ = _adjoint_arrays(
        scenario, scenario.x0.to_vector(), *_time_major(controls), np.eye(n)
    )
    own = range(n)
    grad = np.stack([gs[:, own, own], gmu[:, own, own]], axis=-1).transpose(1, 0, 2)
    grad /= np.abs(welfare)[:, None, None]
    lower, upper = scenario.control_lower(), scenario.control_upper()
    moved = np.clip(controls + grad, lower, upper) - controls
    return welfare, np.abs(moved).max(axis=(1, 2))


def _shifted(plan: np.ndarray) -> np.ndarray:
    """Next window's warm start: ``plan`` advanced one step, last step repeated."""
    return np.concatenate([plan[:, 1:], plan[:, -1:]], axis=1)


def best_response(
    scenario: Scenario,
    region: int,
    profile: ControlProfile,
    options: SolveOptions | None = None,
) -> BestResponseResult:
    """Maximize region's own welfare with all other regions frozen.

    Warm-starts from the region's own slice of ``profile``; solver
    failures surface in the attached report rather than raising.
    """
    if not 0 <= region < scenario.n_regions:
        raise ModelDomainError("region index out of range")
    full, report = _own_solve(
        scenario, region, scenario.x0, 0, profile.controls, options or SolveOptions()
    )
    return BestResponseResult(
        region=region,
        controls=full[region].copy(),
        welfare=report.objective,
        report=report,
    )


def _best_responses(
    scenario: Scenario, profile: ControlProfile, options: SolveOptions, threads: int
) -> list:
    """Every region's :class:`BestResponseResult` against ``profile``."""
    args = [(scenario, i, profile, options) for i in range(scenario.n_regions)]
    return _pool_map(best_response, args, threads)


def rba_dg(
    scenario: Scenario,
    initial_profile: ControlProfile,
    episodes: int = 21,
    options: SolveOptions | None = None,
    threads: int = 1,
    update: str = "jacobi",
) -> RbaResult:
    """Recursive best-response toward an open-loop Nash equilibrium.

    Starts from ``initial_profile`` (the paper starts from the cooperative
    optimum, ``solve_swm(scenario).profile``) and plays at most
    ``episodes`` best-response rounds. ``update`` may be ``"jacobi"``
    (simultaneous, default) or ``"gauss-seidel"`` (sequential in region
    order). Play stops after the first round whose largest Nash residual
    (:func:`_nash_residual`) is at most ``_NASH_TOL`` and has not fallen
    below ``_RESIDUAL_STALL`` times the previous round's, i.e. has stalled
    at the inner solves' resolution. ``converged`` is true only after such
    a stop whose round had every best response end on its gradient or
    objective-change test.
    """
    if update not in ("jacobi", "gauss-seidel"):
        raise ModelDomainError("update must be 'jacobi' or 'gauss-seidel'")
    opts = options or SolveOptions()
    log = []

    def record(controls, dist_inf, dist_2):
        """Log ``controls`` as the next episode."""
        welfare, residual = _nash_residual(scenario, controls)
        log.append(
            Episode(len(log), controls.copy(), welfare, dist_inf, dist_2, residual)
        )

    controls = initial_profile.controls.copy()
    record(controls, float("nan"), float("nan"))
    converged = False
    for _ in range(episodes):
        if update == "jacobi":
            results = _best_responses(scenario, ControlProfile(controls), opts, threads)
            new = np.array([r.controls for r in results])
            terminations = [r.report.termination for r in results]
        else:
            new = controls.copy()
            terminations = []
            for i in range(scenario.n_regions):
                res = best_response(scenario, i, ControlProfile(new), opts)
                new[i] = res.controls
                terminations.append(res.report.termination)
        dist_inf = float(np.max(np.abs(new - controls)))
        dist_2 = float(np.linalg.norm((new - controls).ravel()))
        controls = new
        record(controls, dist_inf, dist_2)
        residual = log[-1].nash_residual.max()
        if _RESIDUAL_STALL * log[-2].nash_residual.max() <= residual <= _NASH_TOL:
            converged = all(t in _CONVERGED_TERMINATIONS for t in terminations)
            break
    profile = ControlProfile(controls)
    return RbaResult(
        profile=profile,
        trajectory=simulate(scenario.x0, profile, scenario),
        episodes=log,
        converged=converged,
    )


def verify_epsilon_ne(
    scenario: Scenario,
    profile: ControlProfile,
    options: SolveOptions | None = None,
    threads: int = 1,
) -> NeCertificate:
    """Measure the largest relative unilateral improvement on ``profile``."""
    opts = options or SolveOptions()
    results = _best_responses(scenario, profile, opts, threads)
    # Each best response starts from the candidate, so its initial
    # objective is that region's welfare at the candidate.
    welfare = np.array([r.report.initial_objective for r in results])
    br_welfare = np.array([r.welfare for r in results])
    terminations = [r.report.termination for r in results]
    # maximize() guarantees br_welfare >= welfare (init is the own slice).
    gains = (br_welfare - welfare) / np.abs(welfare)
    return NeCertificate(
        welfare=welfare,
        best_response_welfare=br_welfare,
        relative_gain=gains,
        epsilon=float(gains.max()),
        nash_residual=_nash_residual(scenario, profile.controls)[1],
        terminations=terminations,
        converged=all(t in _CONVERGED_TERMINATIONS for t in terminations),
    )


def rhfa_dg(
    scenario: Scenario,
    t_sim: int,
    t_rh: int,
    initial_controls: np.ndarray,
    options: SolveOptions | None = None,
    threads: int = 1,
) -> RhfaResult:
    """Receding-horizon feedback play of the dynamic game.

    Step 0 plays the (n, 2) ``initial_controls`` (the paper's are
    ``solve_swm(scenario).profile.controls[:, 0, :]``). After playing step
    t, every region plans its own controls over [t+1, t+t_rh] against the
    others frozen at their just-played controls, keeps only the first
    planned control, and the game advances. Plans beyond the first step
    are discarded from the game (they only seed the next round's solver).
    Plans solved against frozen opponents can still break the model when
    played together; the step that plays them raises
    :class:`ModelBreakdownError`, with its step and region, as
    :func:`simulate` would, and no truncated play is returned.
    """
    if t_sim < 1 or t_rh < 1:
        raise ModelDomainError("t_sim and t_rh must be at least 1")
    if t_sim + t_rh > scenario.exo.length:
        raise ModelDomainError(
            "exogenous paths do not cover t_sim + t_rh; extend the scenario"
        )
    opts = options or SolveOptions()
    n = scenario.n_regions
    initial_controls = np.asarray(initial_controls, dtype=float)
    if initial_controls.shape != (n, 2):
        raise ModelDomainError("initial controls must have shape (n, 2)")

    played = np.empty((n, t_sim + 1, 2))
    played[:, 0, :] = initial_controls
    x, _ = step(0, scenario.x0, initial_controls, scenario)
    plans = np.repeat(initial_controls[:, None, :], t_rh, axis=1)

    for t in range(t_sim):
        # Region i's window: the others frozen at their just-played
        # controls, its own rows warm-started from its shifted plan.
        windows = np.array([np.repeat(played[:, t, None, :], t_rh, axis=1)] * n)
        windows[range(n), range(n)] = _shifted(plans)
        args = [(scenario, i, x, t + 1, windows[i], opts) for i in range(n)]
        solved = _pool_map(_own_solve, args, threads)
        plans = np.array([full[i] for i, (full, _) in enumerate(solved)])
        played[:, t + 1, :] = plans[:, 0, :]
        x, _ = step(t + 1, x, plans[:, 0, :], scenario)

    profile = ControlProfile(played)
    return RhfaResult(
        profile=profile,
        trajectory=simulate(scenario.x0, profile, scenario),
        t_rh=t_rh,
    )
