"""Best responses, recursive best-response play, and equilibrium certificates."""

import numpy as np
import pytest

from conftest import make_scenario, random_profile
from finite_difference import gradient_fd

from rice_game import (
    ControlProfile,
    ModelBreakdownError,
    ModelDomainError,
    SolveOptions,
    best_response,
    rba_dg,
    regional_welfare,
    rhfa_dg,
    simulate,
    verify_epsilon_ne,
)
from rice_game.cooperative import default_initial_profile, solve_swm
from rice_game.noncooperative import _NASH_TOL, _RESIDUAL_STALL, _nash_residual

FAST = SolveOptions(multistart=1, max_iter=300)


def cold_profile(scenario):
    steps = scenario.horizon + 1
    return ControlProfile(default_initial_profile(scenario, steps))


# ---------------------------------------------------------------------------
# Best response
# ---------------------------------------------------------------------------


def test_best_response_improves_own_welfare(small_scenario):
    profile = cold_profile(small_scenario)
    traj = simulate(small_scenario.x0, profile, small_scenario)
    base = regional_welfare(traj, small_scenario)[1]
    br = best_response(small_scenario, 1, profile, FAST)
    assert br.region == 1
    assert br.welfare >= base


def test_best_response_welfare_matches_spliced_rollout(small_scenario):
    profile = cold_profile(small_scenario)
    br = best_response(small_scenario, 2, profile, FAST)
    spliced = profile.controls.copy()
    spliced[2] = br.controls
    new_profile = ControlProfile(spliced)
    traj = simulate(small_scenario.x0, new_profile, small_scenario)
    assert br.welfare == pytest.approx(
        regional_welfare(traj, small_scenario)[2], rel=1e-10
    )
    lo, hi = small_scenario.control_lower(), small_scenario.control_upper()
    assert np.all(br.controls >= lo - 1e-12)
    assert np.all(br.controls <= hi + 1e-12)


@pytest.mark.parametrize("region", [-1, 3, 12])
def test_best_response_rejects_bad_region(small_scenario, region):
    with pytest.raises(ModelDomainError):
        best_response(small_scenario, region, cold_profile(small_scenario), FAST)


# ---------------------------------------------------------------------------
# First-order Nash residual
# ---------------------------------------------------------------------------


def test_nash_residual_matches_finite_difference_own_gradients(small_scenario, rng):
    sc = small_scenario
    controls = random_profile(sc, sc.horizon + 1, rng, margin=0.05).controls
    # Put some controls on their bounds: the last saving at its floor, where
    # the step leaves the box and is clipped, and early abatement at zero.
    controls[:, -1, 0] = sc.s_bounds[0]
    controls[:, :3, 1] = sc.mu_bounds[0]
    box_lo = np.tile(sc.control_lower(), sc.horizon + 1)
    box_hi = np.tile(sc.control_upper(), sc.horizon + 1)
    expected = []
    for i in range(sc.n_regions):

        def own_welfare(x, i=i):
            trial = controls.copy()
            trial[i] = x.reshape(-1, 2)
            traj = simulate(sc.x0, ControlProfile(trial), sc)
            return regional_welfare(traj, sc)[i]

        x = controls[i].ravel()
        g, _ = gradient_fd(own_welfare, x, step=1e-6, lower=box_lo, upper=box_hi)
        moved = np.clip(x + g / abs(own_welfare(x)), box_lo, box_hi)
        expected.append(np.abs(moved - x).max())
    welfare, residual = _nash_residual(sc, controls)
    np.testing.assert_allclose(residual, expected, rtol=1e-5)
    # The sweep's welfare is the rollout's, bit for bit.
    traj = simulate(sc.x0, ControlProfile(controls), sc)
    np.testing.assert_array_equal(welfare, regional_welfare(traj, sc))


# ---------------------------------------------------------------------------
# Recursive best-response play
# ---------------------------------------------------------------------------


def test_rba_episode_log_structure(small_scenario):
    res = rba_dg(
        small_scenario,
        episodes=2,
        options=FAST,
        initial_profile=cold_profile(small_scenario),
    )
    assert len(res.episodes) == 3
    first = res.episodes[0]
    assert first.index == 0
    assert np.isnan(first.distance_inf) and np.isnan(first.distance_2)
    np.testing.assert_array_equal(
        first.profile, cold_profile(small_scenario).controls
    )
    for ep in res.episodes:
        assert ep.nash_residual.shape == (small_scenario.n_regions,)
        assert np.all(ep.nash_residual >= 0.0)
    for ep in res.episodes[1:]:
        assert ep.distance_inf >= 0.0
        assert ep.distance_2 >= ep.distance_inf
        assert ep.welfare.shape == (small_scenario.n_regions,)
    assert not res.converged


def test_rba_zero_episodes_returns_initial(small_scenario):
    init = cold_profile(small_scenario)
    res = rba_dg(small_scenario, episodes=0, options=FAST, initial_profile=init)
    np.testing.assert_array_equal(res.profile.controls, init.controls)
    assert not res.converged
    assert len(res.episodes) == 1


def test_rba_converges_and_certifies_on_toy(small_scenario):
    # The Nash residual stalls near the inner solves' resolution, where play
    # stops; the certificate is the real equilibrium evidence and lands near
    # 1e-11.
    res = rba_dg(
        small_scenario,
        episodes=10,
        options=FAST,
        initial_profile=cold_profile(small_scenario),
    )
    assert res.converged
    assert res.episodes[-1].distance_inf < 1e-3
    assert res.episodes[-1].nash_residual.max() <= _NASH_TOL
    assert len(res.episodes) < 11
    cert = verify_epsilon_ne(small_scenario, res.profile, FAST)
    assert cert.epsilon < 1e-8
    np.testing.assert_array_equal(cert.nash_residual, res.episodes[-1].nash_residual)
    # The episode log and the certificate read the same welfare, bit for bit,
    # as a rollout of the result.
    welfare = regional_welfare(res.trajectory, small_scenario)
    np.testing.assert_array_equal(res.episodes[-1].welfare, welfare)
    np.testing.assert_array_equal(cert.welfare, welfare)


def test_rba_stops_on_the_first_small_stalled_round(small_scenario):
    init = cold_profile(small_scenario)
    res = rba_dg(small_scenario, episodes=10, options=FAST, initial_profile=init)
    residuals = [ep.nash_residual.max() for ep in res.episodes]

    def stalled(k):
        return _RESIDUAL_STALL * residuals[k - 1] <= residuals[k] <= _NASH_TOL

    played = len(residuals) - 1
    assert 1 < played < 10
    assert stalled(played)
    assert not any(stalled(k) for k in range(1, played))
    # With fewer rounds allowed, the same play is cut at the cap.
    capped = rba_dg(
        small_scenario, episodes=played - 1, options=FAST, initial_profile=init
    )
    assert len(capped.episodes) == played
    assert not capped.converged
    for ep, full in zip(capped.episodes, res.episodes):
        np.testing.assert_array_equal(ep.profile, full.profile)
        np.testing.assert_array_equal(ep.nash_residual, full.nash_residual)


@pytest.mark.parametrize("update", ["jacobi", "gauss-seidel"])
def test_rba_not_converged_when_best_responses_stop_early(small_scenario, update):
    # Started at an equilibrium, the first round's residual is already small
    # and stalled, so play stops there; its best responses were cut off
    # after one iteration.
    equilibrium = rba_dg(
        small_scenario, options=FAST, initial_profile=cold_profile(small_scenario)
    )
    assert equilibrium.converged
    res = rba_dg(
        small_scenario,
        episodes=3,
        options=SolveOptions(max_iter=1),
        initial_profile=equilibrium.profile,
        update=update,
    )
    assert len(res.episodes) == 2
    assert res.converged is False


def test_rba_rejects_unknown_update_rule(small_scenario):
    with pytest.raises(ModelDomainError):
        rba_dg(small_scenario, cold_profile(small_scenario), update="newton")


def test_rba_gauss_seidel_runs_and_is_deterministic(small_scenario):
    kwargs = dict(
        episodes=2,
        options=FAST,
        initial_profile=cold_profile(small_scenario),
        update="gauss-seidel",
    )
    a = rba_dg(small_scenario, **kwargs)
    b = rba_dg(small_scenario, **kwargs)
    np.testing.assert_array_equal(a.profile.controls, b.profile.controls)
    assert np.isfinite(a.episodes[-1].distance_inf)


# ---------------------------------------------------------------------------
# Equilibrium certificate
# ---------------------------------------------------------------------------


def test_certificate_fields_are_consistent(small_scenario):
    profile = cold_profile(small_scenario)
    cert = verify_epsilon_ne(small_scenario, profile, FAST)
    n = small_scenario.n_regions
    assert cert.welfare.shape == (n,)
    traj = simulate(small_scenario.x0, profile, small_scenario)
    np.testing.assert_array_equal(cert.welfare, regional_welfare(traj, small_scenario))
    assert cert.best_response_welfare.shape == (n,)
    expected = (cert.best_response_welfare - cert.welfare) / np.abs(cert.welfare)
    np.testing.assert_allclose(cert.relative_gain, expected, rtol=0, atol=0)
    assert cert.epsilon == pytest.approx(cert.relative_gain.max(), abs=0)
    assert cert.epsilon >= -1e-12
    assert len(cert.terminations) == n
    assert cert.converged == all(
        t in ("gradient", "objective-change") for t in cert.terminations
    )


def test_certificate_not_converged_when_best_responses_stop_early(small_scenario, rng):
    profile = random_profile(small_scenario, small_scenario.horizon + 1, rng)
    cert = verify_epsilon_ne(small_scenario, profile, SolveOptions(max_iter=1))
    assert len(cert.terminations) == small_scenario.n_regions
    assert "max-iter" in cert.terminations
    assert cert.converged is False


def test_certificate_flags_non_equilibrium(small_scenario):
    # The cold start is far from any equilibrium, so some region should
    # gain visibly from a unilateral deviation.
    cert = verify_epsilon_ne(small_scenario, cold_profile(small_scenario), FAST)
    assert cert.epsilon > 1e-3


# ---------------------------------------------------------------------------
# Receding-horizon feedback play
# ---------------------------------------------------------------------------


def test_rhfa_rejects_bad_arguments(small_scenario):
    n = small_scenario.n_regions
    first = np.column_stack([np.full(n, 0.25), np.full(n, 0.1)])
    with pytest.raises(ModelDomainError):
        rhfa_dg(small_scenario, t_sim=0, t_rh=3, initial_controls=first)
    with pytest.raises(ModelDomainError):
        rhfa_dg(small_scenario, t_sim=3, t_rh=0, initial_controls=first)
    with pytest.raises(ModelDomainError):
        rhfa_dg(small_scenario, t_sim=36, t_rh=5, initial_controls=first)
    with pytest.raises(ModelDomainError):
        rhfa_dg(
            small_scenario,
            t_sim=3,
            t_rh=2,
            initial_controls=np.zeros((small_scenario.n_regions, 3)),
        )


def test_rhfa_last_window_may_end_at_the_last_exogenous_step():
    sc = make_scenario(length=12)
    first = np.column_stack([np.full(sc.n_regions, 0.25), np.full(sc.n_regions, 0.1)])
    # The last window covers steps t_sim .. t_sim + t_rh - 1.
    res = rhfa_dg(sc, t_sim=9, t_rh=3, options=FAST, initial_controls=first)
    assert res.profile.controls.shape == (sc.n_regions, 10, 2)
    with pytest.raises(ModelDomainError):
        rhfa_dg(sc, t_sim=10, t_rh=3, options=FAST, initial_controls=first)


def test_rhfa_raises_when_joint_play_breaks_the_model():
    # Each region's window solve is feasible against the others frozen, but
    # the controls played together break the model; the breakdown is raised,
    # not returned as a shorter play.
    sc = make_scenario()
    first = solve_swm(sc).profile.controls[:, 0, :]
    with pytest.raises(ModelBreakdownError) as exc_info:
        rhfa_dg(sc, t_sim=35, t_rh=5, initial_controls=first)
    assert exc_info.value.step == 21
    assert exc_info.value.region == 2


def test_rhfa_plays_initial_controls_first(small_scenario):
    n = small_scenario.n_regions
    first = np.column_stack([np.full(n, 0.3), np.full(n, 0.2)])
    res = rhfa_dg(
        small_scenario, t_sim=3, t_rh=2, options=FAST, initial_controls=first
    )
    np.testing.assert_array_equal(res.profile.controls[:, 0, :], first)
    assert res.profile.controls.shape == (n, 4, 2)
    assert res.trajectory.horizon == 3
    assert res.t_rh == 2
    lo, hi = small_scenario.control_lower(), small_scenario.control_upper()
    assert np.all(res.profile.controls >= lo - 1e-12)
    assert np.all(res.profile.controls <= hi + 1e-12)


def test_rhfa_is_deterministic(small_scenario):
    n = small_scenario.n_regions
    first = np.column_stack([np.full(n, 0.25), np.full(n, 0.1)])
    a = rhfa_dg(small_scenario, t_sim=3, t_rh=2, options=FAST, initial_controls=first)
    b = rhfa_dg(small_scenario, t_sim=3, t_rh=2, options=FAST, initial_controls=first)
    np.testing.assert_array_equal(a.profile.controls, b.profile.controls)


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


def test_pooled_runs_match_serial(small_scenario):
    init = cold_profile(small_scenario)
    n = small_scenario.n_regions
    first = np.column_stack([np.full(n, 0.25), np.full(n, 0.1)])
    runs = {}
    for threads in (1, 2):
        rba = rba_dg(small_scenario, episodes=2, options=FAST, initial_profile=init,
                     threads=threads)
        cert = verify_epsilon_ne(small_scenario, init, FAST, threads=threads)
        rhfa = rhfa_dg(small_scenario, t_sim=3, t_rh=2, options=FAST,
                       initial_controls=first, threads=threads)
        runs[threads] = (rba, cert, rhfa)
    (rba1, cert1, rhfa1), (rba2, cert2, rhfa2) = runs[1], runs[2]
    np.testing.assert_array_equal(rba2.profile.controls, rba1.profile.controls)
    for ep1, ep2 in zip(rba1.episodes, rba2.episodes, strict=True):
        np.testing.assert_array_equal(ep2.welfare, ep1.welfare)
    assert rba2.converged == rba1.converged
    np.testing.assert_array_equal(cert2.best_response_welfare, cert1.best_response_welfare)
    assert cert2.terminations == cert1.terminations
    np.testing.assert_array_equal(rhfa2.profile.controls, rhfa1.profile.controls)
