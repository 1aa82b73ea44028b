"""Best responses, recursive best-response play, and equilibrium certificates."""

import numpy as np
import pytest

from conftest import make_scenario, random_profile

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
from rice_game.cooperative import default_initial_profile

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
# Recursive best-response play
# ---------------------------------------------------------------------------


def test_rba_episode_log_structure(small_scenario):
    res = rba_dg(
        small_scenario,
        episodes=2,
        options=FAST,
        initial_profile=cold_profile(small_scenario),
        stop_tol=0.0,
    )
    assert len(res.episodes) == 3
    first = res.episodes[0]
    assert first.index == 0
    assert np.isnan(first.distance_inf) and np.isnan(first.distance_2)
    np.testing.assert_array_equal(
        first.profile, cold_profile(small_scenario).controls
    )
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
    # Profile distances stall near the solver's reproducibility floor on
    # flat coordinates, so the stop criterion lives at 1e-3; the
    # certificate is the real equilibrium evidence and lands near 1e-12.
    res = rba_dg(
        small_scenario,
        episodes=10,
        options=FAST,
        initial_profile=cold_profile(small_scenario),
        stop_tol=1e-3,
    )
    assert res.converged
    assert res.episodes[-1].distance_inf < 1e-3
    assert len(res.episodes) < 11
    cert = verify_epsilon_ne(small_scenario, res.profile, FAST)
    assert cert.epsilon < 1e-8


@pytest.mark.parametrize("update", ["jacobi", "gauss-seidel"])
def test_rba_not_converged_when_best_responses_stop_early(small_scenario, update):
    # Every control lies in [0, 1], so a stop tolerance of 2 ends the first
    # round; its best responses were cut off after one iteration.
    res = rba_dg(
        small_scenario,
        episodes=3,
        options=SolveOptions(max_iter=1),
        initial_profile=cold_profile(small_scenario),
        stop_tol=2.0,
        update=update,
    )
    assert len(res.episodes) == 2
    assert res.converged is False


def test_rba_rejects_unknown_update_rule(small_scenario):
    with pytest.raises(ModelDomainError):
        rba_dg(small_scenario, episodes=1, update="newton")


def test_rba_gauss_seidel_runs_and_is_deterministic(small_scenario):
    kwargs = dict(
        episodes=2,
        options=FAST,
        initial_profile=cold_profile(small_scenario),
        stop_tol=0.0,
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
    with pytest.raises(ModelDomainError):
        rhfa_dg(small_scenario, t_sim=0, t_rh=3)
    with pytest.raises(ModelDomainError):
        rhfa_dg(small_scenario, t_sim=3, t_rh=0)
    with pytest.raises(ModelDomainError):
        rhfa_dg(small_scenario, t_sim=36, t_rh=5)
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
    with pytest.raises(ModelBreakdownError) as exc_info:
        rhfa_dg(make_scenario(), t_sim=35, t_rh=5)
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
                     stop_tol=0.0, threads=threads)
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
