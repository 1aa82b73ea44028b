"""Acceptance suite: ten end-to-end criteria on the shipped default scenario.

Each test prints exactly one [PASS]/[FAIL] line with the measured numbers
so the run log doubles as the acceptance report. The heavy artifacts
(cooperative optimum, Nash equilibrium, frontier, receding-horizon runs)
are computed once per module and shared.
"""

import dataclasses
import sys
import time

import mpmath
import numpy as np
import pytest

from conftest import make_scenario, random_profile
from finite_difference import gradient_fd
from scalar_oracle import (
    FloatBackend,
    MpBackend,
    oracle_weighted_welfare,
    scenario_constants,
)

from rice_game import (
    ControlProfile,
    SolveOptions,
    build_default_scenario,
    gradient_adjoint,
    mpc_rice,
    pareto_frontier,
    rba_dg,
    rhfa_dg,
    simulate,
    social_cost_of_co2,
    solve_swm,
    verify_epsilon_ne,
    weighted_welfare,
)
from rice_game.noncooperative import _NASH_TOL, _nash_residual


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    print(line, file=sys.stderr)


@pytest.fixture(scope="module")
def scenario():
    return build_default_scenario()


@pytest.fixture(scope="module")
def coop(scenario):
    t0 = time.perf_counter()
    result = solve_swm(scenario, SolveOptions(multistart=2))
    result.elapsed = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def ne(scenario, coop):
    t0 = time.perf_counter()
    result = rba_dg(scenario, episodes=21, initial_profile=coop.profile)
    result.elapsed = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def frontier(scenario):
    t0 = time.perf_counter()
    result = pareto_frontier(
        scenario,
        p_grid=np.linspace(0.001, 0.999, 21),
        options=SolveOptions(multistart=1),
    )
    result.elapsed = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def mpc_runs(scenario):
    return {
        t_rh: mpc_rice(scenario, t_sim=50, t_rh=t_rh, options=SolveOptions())
        for t_rh in (10, 20, 60)
    }


@pytest.fixture(scope="module")
def rhfa_runs(scenario, coop):
    first = coop.profile.controls[:, 0, :]
    return {
        t_rh: rhfa_dg(
            scenario,
            t_sim=120,
            t_rh=t_rh,
            options=SolveOptions(),
            initial_controls=first,
        )
        for t_rh in (5, 10, 20)
    }


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_01_adjoint_matches_finite_differences():
    t_start = time.perf_counter()
    sc = dataclasses.replace(build_default_scenario(), horizon=20)
    n, steps = sc.n_regions, sc.horizon + 1
    weights = sc.weights
    lower = np.tile(sc.control_lower(), n * steps)
    upper = np.tile(sc.control_upper(), n * steps)

    def objective(x):
        profile = ControlProfile(x.reshape(n, steps, 2))
        traj = simulate(sc.x0, profile, sc)
        return weighted_welfare(traj, profile, weights, sc)

    consts = scenario_constants(sc)
    rng = np.random.default_rng(2020)
    checked = escalated = 0
    worst = 0.0
    failures = []
    for _ in range(20):
        profile = random_profile(sc, steps, rng, margin=0.05)
        x = profile.controls.ravel().copy()
        g_adj = gradient_adjoint(profile, sc, weights)
        g_fd, _ = gradient_fd(objective, x, step=2e-4, lower=lower, upper=upper)
        mask = np.abs(g_fd) > 1e-8
        checked += int(mask.sum())
        rel = np.abs(g_adj - g_fd)[mask] / np.abs(g_fd)[mask]
        worst = max(worst, float(rel.max()))
        suspect = np.flatnonzero(mask)[rel >= 1e-5]
        # Second float64 pass with a 10x larger step: a coordinate that
        # fails the small step on subtraction noise has modest curvature
        # and passes here, and one that fails the large step on curvature
        # passes the small step; only coordinates failing both go to the
        # high-precision route.
        still = []
        for j in suspect:
            hi = x.copy()
            lo = x.copy()
            hi[j] += 2e-3
            lo[j] -= 2e-3
            g2 = (objective(hi) - objective(lo)) / 4e-3
            if abs(g2) <= 1e-8 or abs(g_adj[j] - g2) / abs(g2) >= 1e-5:
                still.append(j)
        for j in still:
            # Escalate to high-precision central differences through the
            # independent straight-line oracle before calling it a failure.
            escalated += 1
            with mpmath.workdps(40):
                backend = MpBackend(mpmath)
                h = mpmath.mpf("1e-7")

                def mp_value(delta):
                    xj = x.copy()
                    xj[j] += delta
                    c = xj.reshape(n, steps, 2)
                    s = [[c[i, t, 0] for i in range(n)] for t in range(steps)]
                    mu = [[c[i, t, 1] for i in range(n)] for t in range(steps)]
                    return oracle_weighted_welfare(
                        consts, s, mu, list(weights), backend
                    )

                g_mp = (mp_value(float(h)) - mp_value(-float(h))) / (2 * h)
            rel_mp = abs(g_adj[j] - float(g_mp)) / max(abs(float(g_mp)), 1e-300)
            if rel_mp >= 1e-5:
                failures.append((int(j), float(g_adj[j]), float(g_mp)))
    elapsed = time.perf_counter() - t_start
    ok = not failures and elapsed < 60.0
    report(
        1,
        ok,
        f"{checked} coordinates, worst float64 rel err {worst:.2e}, "
        f"{escalated} escalated, {len(failures)} disagree, {elapsed:.1f}s (< 60s)",
    )
    assert not failures, f"adjoint disagrees with high-precision FD: {failures[:5]}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Conservation suite
# ---------------------------------------------------------------------------


def test_criterion_02_conservation(scenario):
    spec = dataclasses.replace(scenario.exo_spec, length=210)
    from rice_game.calibration import generate_exogenous

    exo = generate_exogenous(spec)
    silent = dataclasses.replace(
        exo,
        sigma=np.zeros_like(exo.sigma),
        e_land=np.zeros_like(exo.e_land),
        f_ex=np.zeros_like(exo.f_ex),
    )
    quiet = dataclasses.replace(
        scenario, exo=silent, exo_spec=None, horizon=200
    )
    profile = ControlProfile.constant(quiet.n_regions, 200, 0.25, 0.0)

    # Total carbon mass is invariant without emissions, from the default
    # initial stocks.
    traj = simulate(quiet.x0, profile, quiet)
    masses = traj.states[:, 2:5].sum(axis=1)
    mass_err = float(np.max(np.abs(masses / masses[0] - 1.0)))

    # The stationary carbon mix with matching preindustrial atmosphere is a
    # zero-forcing fixed point: temperatures stay at zero.
    zmat = quiet.geo.carbon_matrix()
    eigvals, eigvecs = np.linalg.eig(zmat)
    pi = np.real(eigvecs[:, np.argmin(np.abs(eigvals - 1.0))])
    pi = pi / pi[0] * quiet.geo.m_at_1750
    cold = dataclasses.replace(
        quiet.x0, t_at=0.0, t_lo=0.0, m_at=pi[0], m_up=pi[1], m_lo=pi[2]
    )
    frozen = simulate(cold, profile, quiet)
    temp_err = float(np.max(np.abs(frozen.states[:, :2])))

    # Replay determinism and the prefix property on the default scenario.
    rng = np.random.default_rng(7)
    full = random_profile(scenario, scenario.horizon + 1, rng)
    t_a = simulate(scenario.x0, full, scenario)
    t_b = simulate(scenario.x0, full, scenario)
    deterministic = all(
        np.array_equal(getattr(t_a, f.name), getattr(t_b, f.name))
        for f in dataclasses.fields(t_a)
    )
    head = ControlProfile(full.controls[:, :41, :].copy())
    t_head = simulate(scenario.x0, head, scenario)
    prefix = np.array_equal(t_head.states, t_a.states[:42]) and np.array_equal(
        t_head.consumption, t_a.consumption[:41]
    )

    ok = mass_err < 1e-9 and temp_err < 1e-9 and deterministic and prefix
    report(
        2,
        ok,
        f"mass drift {mass_err:.2e} (< 1e-9, 200 steps), zero-forcing "
        f"|T| {temp_err:.2e}, determinism {deterministic}, prefix {prefix}",
    )
    assert mass_err < 1e-9
    assert temp_err < 1e-9
    assert deterministic and prefix


# ---------------------------------------------------------------------------
# 3. Brute-force oracle equivalence
# ---------------------------------------------------------------------------


def _coordinate_search(fun, lower, upper, x0, rounds=14, points=9):
    """Derivative-free refinement: cyclic per-coordinate grid, shrinking."""
    x = np.asarray(x0, dtype=float).copy()
    best = fun(x)
    width = (upper - lower).astype(float)
    for _ in range(rounds):
        for j in range(x.size):
            lo = max(lower[j], x[j] - width[j] / 2.0)
            hi = min(upper[j], x[j] + width[j] / 2.0)
            for cand in np.linspace(lo, hi, points):
                trial = x.copy()
                trial[j] = cand
                val = fun(trial)
                if val > best:
                    best, x = val, trial
        width *= 0.35
    return x, best


def test_criterion_03_small_problem_matches_grid_search():
    t_start = time.perf_counter()
    sc = make_scenario(n=2, horizon=3)
    consts = scenario_constants(sc)
    weights = list(sc.weights)
    n, steps = 2, 4
    backend = FloatBackend()

    def fun(x):
        c = x.reshape(n, steps, 2)
        s = [[c[i, t, 0] for i in range(n)] for t in range(steps)]
        mu = [[c[i, t, 1] for i in range(n)] for t in range(steps)]
        return oracle_weighted_welfare(consts, s, mu, weights, backend)

    lower = np.tile(sc.control_lower(), n * steps)
    upper = np.tile(sc.control_upper(), n * steps)
    x0 = (lower + upper) / 2.0
    _, best_oracle = _coordinate_search(fun, lower, upper, x0)

    result = solve_swm(sc, SolveOptions(multistart=4))
    rel = abs(result.welfare - best_oracle) / abs(best_oracle)
    elapsed = time.perf_counter() - t_start
    ok = rel < 1e-6 and elapsed < 300.0
    report(
        3,
        ok,
        f"solver {result.welfare:.10g} vs grid search {best_oracle:.10g}, "
        f"rel diff {rel:.2e} (< 1e-6), {elapsed:.1f}s (< 300s)",
    )
    assert rel < 1e-6
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 4. Cooperative headline
# ---------------------------------------------------------------------------


def test_criterion_04_cooperative_terminal_temperature(scenario, coop):
    terminal = float(coop.trajectory.states[-2, 0])
    year = scenario.year(coop.trajectory.horizon)
    ok = 2.5 <= terminal <= 3.5
    report(
        4,
        ok,
        f"terminal T_AT {terminal:.3f} degC at year {year} in [2.5, 3.5], "
        f"solve {coop.elapsed:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Competition headline
# ---------------------------------------------------------------------------


def test_criterion_05_nash_terminal_temperature(coop, ne):
    t_ne = ne.trajectory.states[:, 0]
    t_co = coop.trajectory.states[:, 0]
    terminal = float(t_ne[-2])
    gap = float((t_ne[10:] - t_co[10:]).min())
    ok = 5.0 <= terminal <= 7.0 and gap >= 0.0
    report(
        5,
        ok,
        f"terminal T_AT {terminal:.3f} degC in [5, 7], min(NE - coop) "
        f"{gap:+.3f} degC for t >= 10, solve {ne.elapsed:.0f}s",
    )
    assert 5.0 <= terminal <= 7.0
    assert gap >= 0.0


# ---------------------------------------------------------------------------
# 6. RBA-DG convergence and epsilon-NE certificate
# ---------------------------------------------------------------------------


def test_criterion_06_rba_convergence(scenario, ne):
    distances = [ep.distance_inf for ep in ne.episodes[1:]]
    within = [d for k, d in enumerate(distances, start=1) if k <= 10 and d < 1e-3]
    cert = verify_epsilon_ne(scenario, ne.profile)
    ok = bool(within) and cert.epsilon < 1e-3
    last = distances[-1] if distances else float("nan")
    report(
        6,
        ok,
        f"{len(ne.episodes) - 1} episodes, last step {last:.2e}, first "
        f"sub-1e-3 at episode "
        f"{next((k for k, d in enumerate(distances, 1) if d < 1e-3), None)}, "
        f"Nash residual {ne.episodes[-1].nash_residual.max():.2e}, "
        f"converged {ne.converged}, epsilon {cert.epsilon:.2e} (< 1e-3)",
    )
    assert within, f"no episode within 10 reached 1e-3: {distances[:10]}"
    assert cert.epsilon < 1e-3


def test_nash_residual_separates_cooperation_from_equilibrium(scenario, coop, ne):
    # The cooperative optimum leaves every region a unilateral gain; RBA
    # stops where no region has a first-order one left.
    coop_residual = _nash_residual(scenario, coop.profile.controls)[1].max()
    ne_residual = _nash_residual(scenario, ne.profile.controls)[1].max()
    assert coop_residual > 1e-3
    assert ne_residual <= _NASH_TOL
    assert ne.converged


# ---------------------------------------------------------------------------
# 7. Pareto audit
# ---------------------------------------------------------------------------


def test_criterion_07_pareto_frontier_audit(frontier):
    assert not frontier.failures, f"frontier failures: {frontier.failures}"
    w_dev = np.array([pt.welfare_developed for pt in frontier.points])
    terminals = np.array([pt.terminal_t_at for pt in frontier.points])
    spread = float((w_dev.max() - w_dev.min()) / abs(w_dev.max()))
    t_lo, t_hi = float(terminals.min()), float(terminals.max())
    ok = (
        len(frontier.points) == 21
        and not frontier.dominance_violations
        and spread < 0.01
        and t_lo >= 2.5
        and t_hi <= 3.6
    )
    report(
        7,
        ok,
        f"21 points, dominance violations {len(frontier.dominance_violations)}, "
        f"developed welfare spread {spread * 100:.2f}% (< 1%), terminals "
        f"[{t_lo:.2f}, {t_hi:.2f}] degC in [2.5, 3.6], {frontier.elapsed:.0f}s",
    )
    assert len(frontier.points) == 21
    assert not frontier.dominance_violations
    assert spread < 0.01
    assert t_lo >= 2.5 and t_hi <= 3.6


# ---------------------------------------------------------------------------
# 8. MPC fidelity
# ---------------------------------------------------------------------------


def test_criterion_08_mpc_approaches_open_loop(coop, mpc_runs):
    target = coop.profile.controls[:, :50, :]
    devs = {}
    for t_rh, run in mpc_runs.items():
        diff = run.profile.controls[:, :50, :] - target
        devs[t_rh] = float(np.sqrt(np.mean(diff**2)))
    ok = devs[10] >= devs[20] - 1e-9 and devs[20] >= devs[60] - 1e-9
    report(
        8,
        ok,
        "control RMS deviation from the welfare optimum over 50 steps: "
        f"T_rh=10: {devs[10]:.4f} >= T_rh=20: {devs[20]:.4f} >= "
        f"T_rh=60: {devs[60]:.4f}",
    )
    assert ok, f"deviation not nonincreasing in T_rh: {devs}"


# ---------------------------------------------------------------------------
# 9. RHFA ordering
# ---------------------------------------------------------------------------


def test_criterion_09_rhfa_horizon_ordering(coop, rhfa_runs):
    terminals = {
        t_rh: float(run.trajectory.states[-2, 0]) for t_rh, run in rhfa_runs.items()
    }
    ordered = (
        terminals[5] >= terminals[10] - 1e-9
        and terminals[10] >= terminals[20] - 1e-9
    )
    t_co = coop.trajectory.states[:, 0]
    gaps = {
        t_rh: float((run.trajectory.states[10:, 0] - t_co[10:]).min())
        for t_rh, run in rhfa_runs.items()
    }
    above = all(g >= 0.0 for g in gaps.values())
    ok = ordered and above
    report(
        9,
        ok,
        f"terminals T_rh=5: {terminals[5]:.3f} >= T_rh=10: {terminals[10]:.3f} "
        f">= T_rh=20: {terminals[20]:.3f} degC, min gap above cooperative "
        f"{min(gaps.values()):+.3f} degC for t >= 10",
    )
    assert ordered, f"terminals not nonincreasing in T_rh: {terminals}"
    assert above, f"RHFA path fell below cooperative: {gaps}"


# ---------------------------------------------------------------------------
# 10. Social cost of CO2
# ---------------------------------------------------------------------------


def test_criterion_10_scc_properties(scenario, coop):
    lossless = dataclasses.replace(
        scenario,
        regions=[
            dataclasses.replace(r, a1=0.0, a2=0.0) for r in scenario.regions
        ],
        damage_loss_2c=np.zeros(scenario.n_regions),
    )
    flat = ControlProfile.constant(scenario.n_regions, scenario.horizon, 0.25, 0.1)
    worst_zero = float(
        np.abs(social_cost_of_co2(lossless, lossless.x0, flat, [0, 10, 20, 30])).max()
    )

    names = list(scenario.region_names)
    idx = {nm: names.index(nm) for nm in ("US", "India", "Africa", "OthAsia")}
    years = (20, 24, 30, 36)
    table = social_cost_of_co2(scenario, scenario.x0, coop.profile, years)
    orderings = []
    for t, row in zip(years, table):
        scc_us = row[idx["US"]]
        for nm in ("India", "Africa", "OthAsia"):
            scc_nm = row[idx[nm]]
            orderings.append((t, nm, scc_nm, scc_us, scc_nm > scc_us))
    all_ordered = all(o[-1] for o in orderings)
    ok = worst_zero < 0.5 and all_ordered
    report(
        10,
        ok,
        f"zero-damage max |SCC| {worst_zero:.2e} USD/tCO2 (< 0.5); "
        f"SCC(India/Africa/OthAsia) > SCC(US) at years "
        f"{[scenario.year(t) for t in (20, 24, 30, 36)]}: {all_ordered}",
    )
    assert worst_zero < 0.5
    assert all_ordered, [o for o in orderings if not o[-1]]
