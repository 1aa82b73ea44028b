"""Cooperative solvers: welfare maximization, frontier tracing, receding horizon."""

import dataclasses

import numpy as np
import pytest

from conftest import make_scenario

from rice_game import (
    ModelDomainError,
    SolveOptions,
    mpc_rice,
    pareto_frontier,
    simulate,
    solve_pareto_point,
    solve_swm,
    weighted_welfare,
)
from rice_game import cooperative
from rice_game.cooperative import default_initial_profile, pareto_weights
from rice_game.solver import WindowProblem

FAST = SolveOptions(multistart=1, max_iter=300)


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
    res = solve_swm(small_scenario, FAST)
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
    res = solve_swm(small_scenario, FAST)
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
    res = solve_swm(dataclasses.replace(small_scenario, weights=w), FAST)
    traj = simulate(small_scenario.x0, res.profile, small_scenario)
    assert res.welfare == pytest.approx(
        weighted_welfare(traj, res.profile, w, small_scenario), rel=1e-10
    )


def test_solve_swm_warm_restart_never_loses(small_scenario):
    first = solve_swm(small_scenario, FAST)
    second = solve_swm(small_scenario, FAST, init=first.profile.controls)
    assert second.welfare >= first.welfare - 1e-9 * abs(first.welfare)
    # A start one step short or flattened is rejected, not solved as given.
    controls = first.profile.controls
    for bad in (controls[:, :-1], controls.ravel()):
        with pytest.raises(ModelDomainError):
            solve_swm(small_scenario, FAST, init=bad)
        with pytest.raises(ModelDomainError):
            solve_pareto_point(small_scenario, 0.5, FAST, init=bad)


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
    pt = solve_pareto_point(small_scenario, 0.4, FAST)
    assert pt.p == 0.4
    dev, devg = cluster_welfares(small_scenario, pt)
    assert pt.welfare_developed == pytest.approx(dev, rel=1e-12, abs=0)
    assert pt.welfare_developing == pytest.approx(devg, rel=1e-12, abs=0)
    traj = simulate(small_scenario.x0, pt.profile, small_scenario)
    assert pt.terminal_t_at == pytest.approx(float(traj.states[-2, 0]), abs=0)


def unpolished_pareto_point(monkeypatch, scenario, p):
    """``solve_pareto_point`` with the saving polish turned into a no-op."""
    with monkeypatch.context() as patch:
        patch.setattr(cooperative, "_polish_savings", lambda sc, controls, opts: controls)
        return solve_pareto_point(scenario, p, FAST)


def test_polish_pins_abatement_and_stays_within_resolution(small_scenario, monkeypatch):
    rough = unpolished_pareto_point(monkeypatch, small_scenario, 0.05)
    fine = solve_pareto_point(small_scenario, 0.05, FAST)
    np.testing.assert_array_equal(
        rough.profile.controls[:, :, 1], fine.profile.controls[:, :, 1]
    )
    # With interior abatement a saving path still carries an emissions
    # externality, so the polish is only a resolution-level tie-break here.
    combo_rough = scalarized(small_scenario, rough, 0.05)
    combo_fine = scalarized(small_scenario, fine, 0.05)
    assert combo_fine == pytest.approx(combo_rough, rel=1e-4, abs=0)


def test_polish_is_exact_when_abatement_saturates(monkeypatch):
    sc = make_scenario(mu_bounds=(1.0, 1.0))
    rough = unpolished_pareto_point(monkeypatch, sc, 0.05)
    fine = solve_pareto_point(sc, 0.05, FAST)
    combo_rough = scalarized(sc, rough, 0.05)
    combo_fine = scalarized(sc, fine, 0.05)
    assert combo_fine >= combo_rough - 1e-9 * abs(combo_rough)
    # Zero unabated emissions close the only cross-region channel of a
    # saving path, so every region's own welfare improves as well.
    for i in range(sc.n_regions):
        w = np.zeros(sc.n_regions)
        w[i] = 1.0
        own = {}
        for tag, pt in (("rough", rough), ("fine", fine)):
            traj = simulate(sc.x0, pt.profile, sc)
            own[tag] = weighted_welfare(traj, pt.profile, w, sc)
        assert own["fine"] >= own["rough"] - 1e-9 * abs(own["rough"])


def test_pareto_frontier_small_grid_is_clean(small_scenario):
    grid = np.linspace(0.1, 0.9, 5)
    res = pareto_frontier(small_scenario, p_grid=grid, options=FAST)
    assert len(res.points) == 5
    assert res.failures == []
    assert res.dominance_violations == []
    dev = np.array([pt.welfare_developed for pt in res.points])
    assert np.all(np.diff(dev) >= -1e-6 * np.abs(dev[:-1]))


def test_pareto_frontier_records_per_point_failures(small_scenario):
    for grid in ([0.5, 1.5], [1.5, 0.5]):
        res = pareto_frontier(small_scenario, p_grid=np.array(grid), options=FAST)
        assert len(res.points) == 1
        assert res.points[0].p == 0.5
        assert len(res.failures) == 1
        p_failed, message = res.failures[0]
        assert p_failed == 1.5
        assert "must lie in [0, 1]" in message


def recorded_solves(monkeypatch, scenario, grid):
    """Run the frontier, recording ``(p, cold start)`` for every point solve."""
    calls = []
    solve = cooperative.solve_pareto_point

    def recording(scenario, p, options=None, init=None):
        calls.append((float(p), init is None))
        return solve(scenario, p, options, init=init)

    monkeypatch.setattr(cooperative, "solve_pareto_point", recording)
    return pareto_frontier(scenario, p_grid=np.array(grid), options=FAST), calls


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
    # A cold solve at p = 0 stalls on the zero-weight developed cluster, and
    # without its re-solve p = 0.05 dominates it in both clusters.
    res = pareto_frontier(
        default_scenario, p_grid=np.array([0.0, 0.05]), options=SolveOptions(multistart=1)
    )
    assert res.failures == []
    assert res.dominance_violations == []


def test_pareto_frontier_audit_tolerance_is_honored(small_scenario, monkeypatch):
    monkeypatch.setattr(cooperative, "AUDIT_REL_TOL", -10.0)
    res = pareto_frontier(small_scenario, p_grid=np.array([0.2, 0.8]), options=FAST)
    assert sorted(res.dominance_violations) == [(0, 1), (1, 0)]


# ---------------------------------------------------------------------------
# Receding-horizon welfare maximization
# ---------------------------------------------------------------------------


def test_mpc_rejects_bad_horizons(small_scenario):
    with pytest.raises(ModelDomainError):
        mpc_rice(small_scenario, t_sim=-1, t_rh=3)
    with pytest.raises(ModelDomainError):
        mpc_rice(small_scenario, t_sim=3, t_rh=0)
    with pytest.raises(ModelDomainError):
        mpc_rice(small_scenario, t_sim=35, t_rh=10)


def test_mpc_windows_ascend_and_shapes(small_scenario):
    res = mpc_rice(small_scenario, t_sim=4, t_rh=3, options=FAST)
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
    a = mpc_rice(small_scenario, t_sim=3, t_rh=2, options=FAST)
    b = mpc_rice(small_scenario, t_sim=3, t_rh=2, options=FAST)
    np.testing.assert_array_equal(a.profile.controls, b.profile.controls)
    np.testing.assert_array_equal(a.window_objectives, b.window_objectives)
