"""Cooperative solvers: welfare maximization, frontier tracing, receding horizon."""

import dataclasses

import numpy as np
import pytest

from conftest import make_scenario

from rice_game import (
    ModelDomainError,
    SolveOptions,
    best_response,
    mpc_rice,
    pareto_frontier,
    regional_welfare,
    simulate,
    solve_pareto_point,
    solve_swm,
    weighted_welfare,
)
from rice_game import cooperative
from rice_game.cooperative import default_initial_profile, pareto_weights
from rice_game.solver import WindowProblem

UNCOVERED = "^exogenous paths do not cover t_sim \\+ t_rh; extend the scenario$"


def cluster_welfares(scenario, point):
    """Recompute the cluster welfares of a frontier point from scratch."""
    traj = simulate(scenario.x0, point.profile, scenario)
    dev = weighted_welfare(
        traj, point.profile, np.where(scenario.developed, 1.0, 0.0), scenario
    )
    devg = weighted_welfare(
        traj, point.profile, np.where(scenario.developed, 0.0, 1.0), scenario
    )
    return dev, devg


def scalarized(scenario, point, p):
    dev, devg = cluster_welfares(scenario, point)
    return p * dev + (1.0 - p) * devg


# ---------------------------------------------------------------------------
# Cold start
# ---------------------------------------------------------------------------


def test_default_initial_profile_shape_and_values(small_scenario):
    steps = small_scenario.horizon + 1
    init = default_initial_profile(small_scenario, steps)
    assert init.shape == (small_scenario.n_regions, steps, 2)
    assert np.all(init[:, :, 0] == 0.25)
    assert np.all(init[:, :, 1] == 0.1)


def test_default_initial_profile_clips_into_box():
    sc = make_scenario(s_bounds=(0.3, 0.5), mu_bounds=(0.2, 1.0))
    init = default_initial_profile(sc, 4)
    assert np.all(init[:, :, 0] == 0.3)
    assert np.all(init[:, :, 1] == 0.2)


# ---------------------------------------------------------------------------
# Social-welfare maximization
# ---------------------------------------------------------------------------


def test_solve_swm_result_is_internally_consistent(small_scenario):
    res = solve_swm(small_scenario)
    lo, hi = small_scenario.control_lower(), small_scenario.control_upper()
    assert np.all(res.profile.controls >= lo - 1e-12)
    assert np.all(res.profile.controls <= hi + 1e-12)

    traj = simulate(small_scenario.x0, res.profile, small_scenario)
    np.testing.assert_allclose(traj.states, res.trajectory.states, rtol=0, atol=0)
    recomputed = weighted_welfare(
        traj, res.profile, small_scenario.weights, small_scenario
    )
    assert res.welfare == pytest.approx(recomputed, rel=1e-10, abs=0)
    assert res.regional_welfare.shape == (small_scenario.n_regions,)
    assert res.regional_welfare @ small_scenario.weights == pytest.approx(
        res.welfare, rel=1e-10
    )


def test_solve_swm_improves_on_cold_start(small_scenario):
    res = solve_swm(small_scenario)
    steps = small_scenario.horizon + 1
    from rice_game import ControlProfile

    cold = ControlProfile(default_initial_profile(small_scenario, steps))
    base = weighted_welfare(
        simulate(small_scenario.x0, cold, small_scenario),
        cold,
        small_scenario.weights,
        small_scenario,
    )
    assert res.welfare >= base


def test_solve_swm_honors_custom_weights(small_scenario):
    w = np.zeros(small_scenario.n_regions)
    w[1] = 1.0
    res = solve_swm(dataclasses.replace(small_scenario, weights=w))
    traj = simulate(small_scenario.x0, res.profile, small_scenario)
    assert res.welfare == pytest.approx(
        weighted_welfare(traj, res.profile, w, small_scenario), rel=1e-10
    )


def test_solve_swm_warm_restart_never_loses(small_scenario):
    first = solve_swm(small_scenario)
    second = solve_swm(small_scenario, init=first.profile.controls)
    assert second.welfare >= first.welfare - 1e-9 * abs(first.welfare)
    # The options the benchmark passes change no bit of the solve.
    passed = solve_swm(small_scenario, SolveOptions(multistart=1), init=first.profile.controls)
    assert passed.profile.controls.tobytes() == second.profile.controls.tobytes()
    assert passed.report.objective_log.tobytes() == second.report.objective_log.tobytes()
    # A start one step short or flattened is rejected, not solved as given.
    controls = first.profile.controls
    for bad in (controls[:, :-1], controls.ravel()):
        with pytest.raises(ModelDomainError):
            solve_swm(small_scenario, init=bad)
        with pytest.raises(ModelDomainError):
            solve_pareto_point(small_scenario, 0.5, init=bad)


def test_solve_swm_optimum_does_not_depend_on_its_start(default_scenario):
    # One-start solves at T=120 from the cold start and from it with every
    # mu at 0.5 measured 3.1e-9 relative apart in welfare and 1.1e-6 degC in
    # terminal T_AT; unscaled they ended 1.4e-6 and 4.1e-3 degC apart, and
    # with only mu scaled, by theta1, 7.8e-9 and 1e-4 degC apart. Bounds are
    # about four times the gaps. The T_AT bound holds for these two starts
    # at 20 correction pairs only, not for the optimum in general: with 4 to
    # 15 pairs they ended 5.8e-6 to 1.9e-4 degC apart (welfare within
    # 5.3e-9), and a third start (every s 0.2, every mu 0.3) at 20 pairs
    # spans 5.1e-5 degC with the two. Terminal T_AT sits along the optimum's
    # flat directions, which the gradient stop does not resolve.
    cold = default_initial_profile(default_scenario, default_scenario.horizon + 1)
    high = cold.copy()
    high[:, :, 1] = 0.5
    a, b = (solve_swm(default_scenario, init=init) for init in (cold, high))
    assert a.report.termination == b.report.termination == "gradient"
    assert b.welfare == pytest.approx(a.welfare, rel=1.2e-8, abs=0)
    t_a, t_b = a.trajectory.states[-2, 0], b.trajectory.states[-2, 0]
    assert abs(t_a - t_b) <= 5e-6


def test_solve_swm_cold_start_converges_in_few_evaluations(default_scenario):
    # The cold one-start solve at T=120 measured 55 evaluations with every
    # control scaled by its utility curvature, 87 with only mu scaled by
    # theta1 and 235 unscaled.
    res = solve_swm(default_scenario)
    assert res.report.termination == "gradient"
    assert res.report.n_evaluations <= 70


# ---------------------------------------------------------------------------
# Frontier scalarization
# ---------------------------------------------------------------------------


def test_pareto_weights_values(small_scenario):
    w = pareto_weights(small_scenario, 0.7)
    expected = np.where(small_scenario.developed, 0.7, 0.3)
    np.testing.assert_allclose(w, expected)


@pytest.mark.parametrize("p", [-0.01, 1.01, 5.0])
def test_pareto_weights_rejects_out_of_range(small_scenario, p):
    with pytest.raises(ModelDomainError):
        pareto_weights(small_scenario, p)


def test_solve_pareto_point_cluster_accounting(small_scenario):
    pt = solve_pareto_point(small_scenario, 0.4)
    assert pt.p == 0.4
    dev, devg = cluster_welfares(small_scenario, pt)
    assert pt.welfare_developed == pytest.approx(dev, rel=1e-12, abs=0)
    assert pt.welfare_developing == pytest.approx(devg, rel=1e-12, abs=0)
    traj = simulate(small_scenario.x0, pt.profile, small_scenario)
    assert pt.terminal_t_at == pytest.approx(float(traj.states[-2, 0]), abs=0)


@pytest.mark.parametrize("p", [0.05, 0.5])
def test_pareto_point_is_the_scalarized_optimum(small_scenario, p):
    # The point is its solve's exit, so its scalarized welfare is the
    # solve's objective, and it is the SWM under its weights bit for bit.
    pt = solve_pareto_point(small_scenario, p)
    assert scalarized(small_scenario, pt, p) == pytest.approx(
        pt.report.objective, rel=1e-12, abs=0
    )
    weights = pareto_weights(small_scenario, p)
    swm = solve_swm(dataclasses.replace(small_scenario, weights=weights))
    assert pt.profile.controls.tobytes() == swm.profile.controls.tobytes()
    assert pt.report.objective == swm.welfare


def test_pareto_point_finishes_the_light_cluster_when_abatement_saturates():
    # Full abatement closes every cross-region channel, so the scalarized
    # optimum is each region's own optimum, also that of the region weighted
    # 0.05. Each region's best response against the point gains at most
    # 5.2e-11 relative; the unscaled solve left the light region 4.6e-9 short.
    sc = make_scenario(mu_bounds=(1.0, 1.0))
    pt = solve_pareto_point(sc, 0.05)
    welfare = regional_welfare(simulate(sc.x0, pt.profile, sc), sc)
    for i in range(sc.n_regions):
        best = best_response(sc, i, pt.profile).welfare
        assert best == pytest.approx(welfare[i], rel=2e-10, abs=0)


def test_pareto_frontier_small_grid_is_clean(small_scenario):
    grid = np.linspace(0.1, 0.9, 5)
    res = pareto_frontier(small_scenario, p_grid=grid)
    assert len(res.points) == 5
    assert res.failures == []
    assert res.dominance_violations == []
    dev = np.array([pt.welfare_developed for pt in res.points])
    assert np.all(np.diff(dev) >= -1e-6 * np.abs(dev[:-1]))


def test_pareto_frontier_records_per_point_failures(small_scenario):
    for grid in ([0.5, 1.5], [1.5, 0.5]):
        res = pareto_frontier(small_scenario, p_grid=np.array(grid))
        assert len(res.points) == 1
        assert res.points[0].p == 0.5
        assert len(res.failures) == 1
        p_failed, message = res.failures[0]
        assert p_failed == 1.5
        assert "must lie in [0, 1]" in message


def test_pareto_frontier_raises_a_fault_that_is_not_a_rice_game_error(
    small_scenario, monkeypatch
):
    # Only a RiceGameError is a recorded failure; a programming error in a
    # point solve propagates instead of emptying the frontier.
    def broken(*args, **kwargs):
        raise TypeError("a fault in the point solve")

    monkeypatch.setattr(cooperative, "regional_welfare", broken)
    with pytest.raises(TypeError, match="a fault in the point solve"):
        pareto_frontier(small_scenario, p_grid=np.linspace(0.1, 0.9, 3))


def recorded_solves(monkeypatch, scenario, grid):
    """Run the frontier, recording ``(p, cold start)`` for every point solve."""
    calls = []
    solve = cooperative.solve_pareto_point

    def recording(scenario, p, init=None):
        calls.append((float(p), init is None))
        return solve(scenario, p, init=init)

    monkeypatch.setattr(cooperative, "solve_pareto_point", recording)
    return pareto_frontier(scenario, p_grid=np.array(grid)), calls


def test_pareto_frontier_chains_warm_starts_and_resolves_first_point(
    small_scenario, monkeypatch
):
    grid = np.linspace(0.1, 0.9, 5)
    _, calls = recorded_solves(monkeypatch, small_scenario, grid)
    assert calls == [(grid[0], True)] + [(p, False) for p in grid[1:]] + [(grid[0], False)]


def test_pareto_frontier_warm_starts_past_a_failure(small_scenario, monkeypatch):
    res, calls = recorded_solves(monkeypatch, small_scenario, [0.3, 1.5, 0.7])
    assert calls == [(0.3, True), (1.5, False), (0.7, False), (0.3, False)]
    assert [p for p, _ in res.failures] == [1.5]


def test_pareto_frontier_resolves_the_cold_endpoint(default_scenario):
    # Without its re-solve the cold p = 0 point is beaten in both clusters by
    # p = 0.05, by 2.7e-6 relative, nine times AUDIT_REL_TOL; after it the
    # largest mutual gain is -2.9e-8.
    res = pareto_frontier(default_scenario, p_grid=np.array([0.0, 0.05]))
    assert res.failures == []
    assert res.dominance_violations == []


def test_pareto_frontier_audit_tolerance_is_honored(small_scenario, monkeypatch):
    monkeypatch.setattr(cooperative, "AUDIT_REL_TOL", -10.0)
    res = pareto_frontier(small_scenario, p_grid=np.array([0.2, 0.8]))
    assert sorted(res.dominance_violations) == [(0, 1), (1, 0)]


# ---------------------------------------------------------------------------
# Receding-horizon welfare maximization
# ---------------------------------------------------------------------------


def test_mpc_rejects_bad_horizons(small_scenario):
    with pytest.raises(ModelDomainError, match="^t_sim must be >= 0 and t_rh >= 1$"):
        mpc_rice(small_scenario, t_sim=-1, t_rh=3)
    with pytest.raises(ModelDomainError, match="^t_sim must be >= 0 and t_rh >= 1$"):
        mpc_rice(small_scenario, t_sim=3, t_rh=0)
    with pytest.raises(ModelDomainError, match=UNCOVERED):
        mpc_rice(small_scenario, t_sim=35, t_rh=10)


def test_mpc_last_window_may_end_at_the_last_exogenous_step():
    sc = make_scenario(length=12)
    # The last window covers steps t_sim .. t_sim + t_rh.
    res = mpc_rice(sc, t_sim=8, t_rh=3)
    assert res.profile.controls.shape == (sc.n_regions, 9, 2)
    with pytest.raises(ModelDomainError, match=UNCOVERED):
        mpc_rice(sc, t_sim=9, t_rh=3)


def test_mpc_windows_ascend_and_shapes(small_scenario):
    res = mpc_rice(small_scenario, t_sim=4, t_rh=3)
    n = small_scenario.n_regions
    sc, cold = small_scenario, default_initial_profile(small_scenario, 4)
    first = WindowProblem(sc, sc.weights, sc.x0, 0, cold)
    assert res.window_initial_objectives[0] == first(cold.ravel())[0]
    assert res.profile.controls.shape == (n, 5, 2)
    assert res.trajectory.horizon == 4
    assert res.window_objectives.shape == (5,)
    assert res.window_initial_objectives.shape == (5,)
    slack = 1e-9 * np.abs(res.window_initial_objectives)
    assert np.all(res.window_objectives >= res.window_initial_objectives - slack)
    lo, hi = small_scenario.control_lower(), small_scenario.control_upper()
    assert np.all(res.profile.controls >= lo - 1e-12)
    assert np.all(res.profile.controls <= hi + 1e-12)


def test_mpc_is_deterministic(small_scenario):
    a = mpc_rice(small_scenario, t_sim=3, t_rh=2)
    b = mpc_rice(small_scenario, t_sim=3, t_rh=2)
    np.testing.assert_array_equal(a.profile.controls, b.profile.controls)
    np.testing.assert_array_equal(a.window_objectives, b.window_objectives)
