"""Dynamics and payoff tests against an independent straight-line oracle."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scenario, random_profile
from scalar_oracle import (
    FloatBackend,
    MpBackend,
    oracle_trajectory,
    oracle_weighted_welfare,
    scenario_constants,
)

from rice_game.model import (
    CONSUMPTION_FLOOR,
    ControlProfile,
    ModelBreakdownError,
    ModelDomainError,
    RiceState,
    regional_welfare,
    simulate,
    social_cost_of_co2,
    step,
    weighted_welfare,
)
from rice_game.model import (
    _adjoint_arrays,
    _forward,
    _per_capita,
    _time_major,
    _utilities,
)


def profile_to_lists(profile):
    s = [[float(profile.controls[i, t, 0]) for i in range(profile.n_regions)]
         for t in range(profile.horizon + 1)]
    mu = [[float(profile.controls[i, t, 1]) for i in range(profile.n_regions)]
          for t in range(profile.horizon + 1)]
    return s, mu


def rollout_from(scenario, x0, controls, t0):
    """Rollout of (n, steps, 2) ``controls`` whose first control is at step ``t0``."""
    return _forward(scenario, x0.to_vector(), *_time_major(controls), t0=t0)[0]


def welfare_from(scenario, traj, t0):
    """Regional welfare of a rollout whose first control is at step ``t0``."""
    cpc, _ = _per_capita(scenario, traj.consumption, t0)
    return _utilities(scenario, cpc, t0).sum(axis=0)


def first_step(scenario, s=0.25, mu=0.1, t0=0, **state):
    """One-step rollout from the scenario's x0 with ``state`` fields replaced."""
    x0 = dataclasses.replace(scenario.x0, **state)
    profile = ControlProfile.constant(scenario.n_regions, 0, s, mu)
    return rollout_from(scenario, x0, profile.controls, t0)


# ---------------------------------------------------------------------------
# Building blocks of one step
# ---------------------------------------------------------------------------


def test_year_mapping(small_scenario):
    assert small_scenario.year(0) == 2020
    assert small_scenario.year(1) == 2025
    assert small_scenario.year(120) == 2620


def test_state_vector_round_trip():
    x = RiceState(1.0, 0.5, 800.0, 400.0, 1700.0, np.array([1.0, 2.0]))
    v = x.to_vector()
    assert v.shape == (7,)
    y = RiceState.from_vector(v)
    assert y == dataclasses.replace(x, capital=y.capital)
    np.testing.assert_array_equal(y.capital, x.capital)


def test_state_vector_validation():
    with pytest.raises(ModelDomainError):
        RiceState.from_vector(np.arange(5.0))
    with pytest.raises(ModelDomainError):
        RiceState.from_vector(np.zeros((2, 4)))


def test_control_profile_shapes():
    with pytest.raises(ModelDomainError):
        ControlProfile(np.zeros((2, 3)))
    with pytest.raises(ModelDomainError):
        ControlProfile(np.zeros((2, 3, 3)))
    p = ControlProfile.constant(2, 4, 0.2, 0.3)
    assert p.n_regions == 2 and p.horizon == 4
    assert p.saving.shape == (2, 5) and p.mu.shape == (2, 5)
    np.testing.assert_array_equal(p.controls[1, 2], [0.2, 0.3])


def test_radiative_forcing_formula(small_scenario):
    sc = small_scenario
    traj = first_step(sc, m_at=2.0 * sc.geo.m_at_1750)
    np.testing.assert_allclose(traj.forcing[0], sc.geo.eta + sc.exo.f_ex[0], rtol=1e-15)


def test_step_carbon_matches_matrix(small_scenario):
    geo = small_scenario.geo
    traj = first_step(small_scenario, m_at=800.0, m_up=400.0, m_lo=1700.0)
    expect = geo.carbon_matrix() @ np.array([800.0, 400.0, 1700.0])
    expect[0] += geo.xi1 * traj.total_emissions[0]
    np.testing.assert_allclose(traj.states[1, 2:5], expect, rtol=1e-15)


def test_step_temperature_matches_matrix(small_scenario):
    geo = small_scenario.geo
    traj = first_step(small_scenario, t_at=1.1, t_lo=0.05)
    expect = geo.temperature_matrix() @ np.array([1.1, 0.05])
    expect[0] += geo.xi2 * traj.forcing[0]
    np.testing.assert_allclose(traj.states[1, 0:2], expect, rtol=1e-15)


def test_gross_output_cobb_douglas(small_scenario):
    sc = small_scenario
    sc = dataclasses.replace(
        sc,
        regions=[dataclasses.replace(r, gamma=1.0 / 3.0) for r in sc.regions],
        exo=dataclasses.replace(
            sc.exo, tfp=np.full_like(sc.exo.tfp, 2.0), labor=np.full_like(sc.exo.labor, 27.0)
        ),
        exo_spec=None,
    )
    traj = first_step(sc, capital=np.full(3, 8.0))
    np.testing.assert_allclose(
        traj.gross_output[0], 2.0 * 8.0 ** (1.0 / 3.0) * 27.0 ** (2.0 / 3.0), rtol=1e-15
    )


def test_backstop_theta1_keeps_printed_exponent(small_scenario):
    sc = small_scenario
    traj = simulate(sc.x0, ControlProfile.constant(3, 3, 0.25, 0.5), sc)
    for t, decay in ((0, 0.97**-1), (3, 0.97**2)):
        # At t = 0 the decline factor enters with exponent -1, as printed.
        for i, r in enumerate(sc.regions):
            theta1 = r.pb / (1000.0 * 2.8) * decay * sc.exo.sigma[t, i]
            np.testing.assert_allclose(
                traj.abatement_fraction[t, i], 1.0 - theta1 * 0.5**2.8, rtol=1e-15
            )


def test_scenario_rejects_backstop_decline_of_one(small_scenario):
    regions = list(small_scenario.regions)
    regions[1] = dataclasses.replace(regions[1], delta_pb=1.0)
    with pytest.raises(ModelDomainError, match="delta_pb"):
        dataclasses.replace(small_scenario, regions=regions)


def test_abatement_and_damage_fractions(small_scenario):
    sc = small_scenario
    traj = first_step(sc, mu=0.5, t_at=2.0)
    theta1 = np.array([r.pb for r in sc.regions]) / (1000.0 * 2.8) / 0.97 * sc.exo.sigma[0]
    np.testing.assert_allclose(
        traj.abatement_fraction[0], 1.0 - theta1 * 0.5**2.8, rtol=1e-15
    )
    # The quadratic fit reproduces the reference loss exactly at 2 degC.
    np.testing.assert_allclose(traj.damage_fraction[0], 1.0 - sc.damage_loss_2c, rtol=1e-14)


def test_global_emissions_sum(small_scenario):
    sc = small_scenario
    traj = first_step(sc, mu=0.25)
    expect = sc.exo.sigma[0] * 0.75 * traj.gross_output[0] + sc.exo.e_land[0]
    np.testing.assert_allclose(traj.emissions[0], expect, rtol=1e-15)
    np.testing.assert_allclose(traj.total_emissions[0], expect.sum(), rtol=1e-15)


def test_step_capital_recursion(small_scenario):
    sc = small_scenario
    traj = first_step(sc, s=0.2)
    expect = 0.9**5 * sc.x0.capital + 5.0 * 0.2 * traj.net_output[0]
    np.testing.assert_allclose(traj.states[1, 5:], expect, rtol=1e-15)


def test_utility_branches():
    # Regions 0 and 2 take the CRRA branch, region 1 the log branch.
    sc = make_scenario(alpha=[1.25, 1.0, 1.25])
    traj = first_step(sc, t0=2)
    cons, labor = traj.consumption[0], sc.exo.labor[2]
    disc = 1.01**-10
    welfare = welfare_from(sc, traj, 2)
    for i in (0, 2):
        expect = labor[i] * ((cons[i] / labor[i]) ** (-0.25) - 1.0) / (-0.25) * disc
        assert welfare[i] == pytest.approx(expect, rel=1e-13, abs=0)
    expect_log = labor[1] * math.log(cons[1] / labor[1]) * disc
    assert welfare[1] == pytest.approx(expect_log, rel=1e-13, abs=0)
    # Floor binds for degenerate consumption.
    poor = dataclasses.replace(
        sc, exo=dataclasses.replace(sc.exo, tfp=sc.exo.tfp * 1e-12), exo_spec=None
    )
    traj = first_step(poor, s=0.95)
    assert traj.consumption_floored.all()
    floored = regional_welfare(traj, poor)
    assert floored[1] == pytest.approx(
        poor.exo.labor[0, 1] * math.log(CONSUMPTION_FLOOR), rel=1e-13
    )


# ---------------------------------------------------------------------------
# Rollouts against the independent oracle
# ---------------------------------------------------------------------------


def test_simulate_matches_oracle(small_scenario, rng):
    consts = scenario_constants(small_scenario)
    for _ in range(5):
        profile = random_profile(small_scenario, small_scenario.horizon + 1, rng)
        traj = simulate(small_scenario.x0, profile, small_scenario)
        s, mu = profile_to_lists(profile)
        states, diag = oracle_trajectory(consts, s, mu)
        np.testing.assert_allclose(traj.states, np.array(states), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(traj.gross_output, np.array(diag["Y"]), rtol=1e-12)
        np.testing.assert_allclose(traj.net_output, np.array(diag["Q"]), rtol=1e-12)
        np.testing.assert_allclose(traj.consumption, np.array(diag["C"]), rtol=1e-12)
        np.testing.assert_allclose(
            traj.abatement_fraction, np.array(diag["LAM"]), rtol=1e-12
        )
        np.testing.assert_allclose(
            traj.damage_fraction, np.array(diag["OM"]), rtol=1e-12
        )
        np.testing.assert_allclose(traj.emissions, np.array(diag["EREG"]), rtol=1e-12)
        np.testing.assert_allclose(
            traj.total_emissions, np.array(diag["ETOT"]), rtol=1e-12
        )
        np.testing.assert_allclose(traj.forcing, np.array(diag["F"]), rtol=1e-12)


def test_weighted_welfare_matches_oracle(small_scenario, rng):
    consts = scenario_constants(small_scenario)
    weights = np.array([0.5, 0.3, 0.2])
    for _ in range(5):
        profile = random_profile(small_scenario, small_scenario.horizon + 1, rng)
        traj = simulate(small_scenario.x0, profile, small_scenario)
        value = weighted_welfare(traj, profile, weights, small_scenario)
        s, mu = profile_to_lists(profile)
        expect = oracle_weighted_welfare(consts, s, mu, list(weights), FloatBackend())
        assert value == pytest.approx(expect, rel=1e-12, abs=0)


def test_simulate_with_offset_matches_oracle(small_scenario, rng):
    consts = scenario_constants(small_scenario)
    profile = random_profile(small_scenario, 6, rng)
    traj = rollout_from(small_scenario, small_scenario.x0, profile.controls, 4)
    s, mu = profile_to_lists(profile)
    states, _ = oracle_trajectory(consts, s, mu, t0=4)
    np.testing.assert_allclose(traj.states, np.array(states), rtol=1e-12)
    value = welfare_from(small_scenario, traj, 4)[1]
    w = [0.0, 1.0, 0.0]
    expect = oracle_weighted_welfare(consts, s, mu, w, FloatBackend(), t0=4)
    assert value == pytest.approx(expect, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", ["random", "constant"])
def test_packaged_scenario_matches_oracle_at_full_horizon(default_scenario, rng, kind):
    # The 12-region, T=120 rollout that the benchmark and the CLI run.
    sc = default_scenario
    steps = sc.horizon + 1
    if kind == "random":
        profile = random_profile(sc, steps, rng)
    else:
        profile = ControlProfile.constant(sc.n_regions, sc.horizon, 0.25, 0.1)
    consts = scenario_constants(sc)
    s, mu = profile_to_lists(profile)
    states, diag = oracle_trajectory(consts, s, mu)
    traj = simulate(sc.x0, profile, sc)
    np.testing.assert_allclose(traj.states, np.array(states), rtol=1e-12, atol=0)
    flows = {
        "gross_output": "Y",
        "net_output": "Q",
        "consumption": "C",
        "abatement_fraction": "LAM",
        "damage_fraction": "OM",
        "emissions": "EREG",
        "total_emissions": "ETOT",
        "forcing": "F",
    }
    for name, key in flows.items():
        np.testing.assert_allclose(
            getattr(traj, name), np.array(diag[key]), rtol=1e-12, atol=0, err_msg=name
        )
    cpc = np.array(diag["C"]) / sc.exo.labor[:steps]
    np.testing.assert_array_equal(traj.consumption_floored, cpc < consts["floor"])
    value = weighted_welfare(traj, profile, sc.weights, sc)
    expect = oracle_weighted_welfare(consts, s, mu, list(sc.weights), FloatBackend())
    assert value == pytest.approx(expect, rel=1e-12, abs=0)


def test_simulate_prefix_property(small_scenario, rng):
    full = random_profile(small_scenario, small_scenario.horizon + 1, rng)
    short = ControlProfile(full.controls[:, :5, :].copy())
    traj_full = simulate(small_scenario.x0, full, small_scenario)
    traj_short = simulate(small_scenario.x0, short, small_scenario)
    np.testing.assert_array_equal(traj_short.states, traj_full.states[:6])
    np.testing.assert_array_equal(traj_short.consumption, traj_full.consumption[:5])


def test_simulate_determinism(small_scenario, rng):
    profile = random_profile(small_scenario, small_scenario.horizon + 1, rng)
    a = simulate(small_scenario.x0, profile, small_scenario)
    b = simulate(small_scenario.x0, profile, small_scenario)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.total_emissions, b.total_emissions)


STEP_DIAGNOSTICS = [
    "gross_output",
    "net_output",
    "consumption",
    "abatement_fraction",
    "damage_fraction",
    "emissions",
    "total_emissions",
    "forcing",
]


def test_step_consistent_with_simulate(small_scenario, default_scenario, rng):
    for sc in (small_scenario, default_scenario):
        for _ in range(3):
            profile = random_profile(sc, sc.horizon + 1, rng)
            traj = simulate(sc.x0, profile, sc)
            x = sc.x0
            for t in range(sc.horizon + 1):
                x, diag = step(t, x, profile.controls[:, t, :], sc)
                np.testing.assert_array_equal(x.to_vector(), traj.states[t + 1])
                assert list(diag) == STEP_DIAGNOSTICS
                for name, value in diag.items():
                    np.testing.assert_array_equal(
                        value, getattr(traj, name)[t], err_msg=name
                    )
                assert type(diag["total_emissions"]) is float
                assert type(diag["forcing"]) is float


def test_trajectory_identities(small_scenario, rng):
    profile = random_profile(small_scenario, small_scenario.horizon + 1, rng)
    traj = simulate(small_scenario.x0, profile, small_scenario)
    s = profile.saving.T
    np.testing.assert_allclose(traj.consumption, (1.0 - s) * traj.net_output, rtol=1e-14)
    np.testing.assert_allclose(
        traj.net_output,
        traj.damage_fraction * traj.abatement_fraction * traj.gross_output,
        rtol=1e-14,
    )
    np.testing.assert_allclose(
        traj.total_emissions, traj.emissions.sum(axis=1), rtol=1e-14
    )
    assert traj.horizon == small_scenario.horizon
    assert traj.n_regions == small_scenario.n_regions
    assert traj.state(0).t_at == small_scenario.x0.t_at


@pytest.mark.parametrize("kind", ["random", "constant"])
def test_stored_flows_drive_stored_states(default_scenario, rng, kind):
    # On the packaged scenario at T=120, the flows that trajectory.csv
    # prints must reproduce the states it prints, step by step.
    sc = default_scenario
    if kind == "random":
        profile = random_profile(sc, sc.horizon + 1, rng)
    else:
        profile = ControlProfile.constant(sc.n_regions, sc.horizon, 0.25, 0.1)
    traj = simulate(sc.x0, profile, sc)
    geo = sc.geo
    now, after = traj.states[:-1], traj.states[1:]
    keep5 = np.array([(1.0 - r.delta_k) ** 5 for r in sc.regions])
    s = profile.saving.T
    identities = {
        "capital": (after[:, 5:], keep5 * now[:, 5:] + 5.0 * s * traj.net_output),
        "m_at": (
            after[:, 2],
            geo.zeta11 * now[:, 2]
            + geo.zeta12 * now[:, 3]
            + geo.xi1 * traj.total_emissions,
        ),
        "t_at": (
            after[:, 0],
            geo.phi11 * now[:, 0] + geo.phi12 * now[:, 1] + geo.xi2 * traj.forcing,
        ),
        "total_emissions": (traj.total_emissions, traj.emissions.sum(axis=1)),
        "net_output": (
            traj.net_output,
            traj.damage_fraction * traj.abatement_fraction * traj.gross_output,
        ),
    }
    for name, (stored, implied) in identities.items():
        np.testing.assert_allclose(stored, implied, rtol=1e-13, atol=0, err_msg=name)


def test_control_bounds_validation(small_scenario):
    bad = ControlProfile.constant(3, small_scenario.horizon, 0.25, 0.0)
    bad.controls[0, 0, 0] = 1.5
    with pytest.raises(ModelDomainError):
        simulate(small_scenario.x0, bad, small_scenario)
    bad.controls[0, 0] = [0.25, 1.5]
    with pytest.raises(ModelDomainError):
        simulate(small_scenario.x0, bad, small_scenario)
    for control in ([np.nan, 0.0], [0.25, np.nan]):
        bad.controls[0, 0] = control
        with pytest.raises(ModelDomainError):
            simulate(small_scenario.x0, bad, small_scenario)
    for change in ({"m_up": np.nan}, {"m_at": -1.0}, {"t_at": np.nan}, {"t_lo": np.inf}):
        with pytest.raises(ModelDomainError):
            simulate(
                dataclasses.replace(small_scenario.x0, **change),
                ControlProfile.constant(3, 2, 0.25, 0.0),
                small_scenario,
            )


def test_exogenous_coverage_checked(small_scenario):
    profile = ControlProfile.constant(3, small_scenario.exo.length, 0.25, 0.0)
    with pytest.raises(ModelDomainError):
        simulate(small_scenario.x0, profile, small_scenario)


def test_region_count_mismatch(small_scenario):
    profile = ControlProfile.constant(4, 3, 0.25, 0.0)
    with pytest.raises(ModelDomainError):
        simulate(small_scenario.x0, profile, small_scenario)


def test_breakdown_reports_step_and_region():
    hot = make_scenario()
    # A damage coefficient large enough to push omega negative as warming
    # compounds; the rollout must abort with the failing step attached.
    regions = [dataclasses.replace(r, a2=0.2) for r in hot.regions]
    hot = dataclasses.replace(hot, regions=regions)
    profile = ControlProfile.constant(3, hot.horizon, 0.25, 0.0)
    with pytest.raises(ModelBreakdownError) as exc_info:
        simulate(hot.x0, profile, hot)
    assert exc_info.value.step >= 0
    assert exc_info.value.region is not None
    x = RiceState(3.0, 0.1, 878.0, 471.0, 1741.0, np.array([10.0, 15.0, 20.0]))
    with pytest.raises(ModelBreakdownError) as breakdown:
        step(0, x, np.full((3, 2), 0.25), hot)
    assert breakdown.value.step == 0
    assert breakdown.value.region is not None


def oracle_breakdown(scenario, s, mu):
    """First step at which the oracle's rollout leaves the domain, by hand.

    Returns ``(step, {region: (omega, lambda)})`` over the regions whose
    damage or abatement fraction is <= 0 at that step, or None.
    """
    consts = scenario_constants(scenario)
    for t in range(len(s)):
        states, _ = oracle_trajectory(consts, s[:t], mu[:t])
        t_at = states[-1][0]
        bad = {}
        for i, r in enumerate(scenario.regions):
            sigma = consts["sigma"][t][i]
            theta1 = r.pb / (1000.0 * r.theta2) * (1.0 - r.delta_pb) ** (t - 1) * sigma
            lam = 1.0 - theta1 * mu[t][i] ** r.theta2
            om = 1.0 - r.a1 * t_at - r.a2 * t_at**r.a3
            if lam <= 0.0 or om <= 0.0:
                bad[i] = (om, lam)
        if bad:
            return t, bad
    return None


# (backstop price overrides, damage a2 overrides, region whose mu jumps to 1
# from a step on, expected step, expected region, failing regions by kind)
BREAKDOWNS = {
    "lambda-first": ({1: 20000.0}, {}, (1, 3), 3, 1, {1: "lambda"}),
    "omega-first": ({}, {2: 0.05}, None, 4, 2, {2: "omega"}),
    "both-omega-lower": (
        {2: 20000.0}, {0: 0.05}, (2, 4), 4, 0, {0: "omega", 2: "lambda"}
    ),
    "both-lambda-lower": (
        {0: 20000.0}, {2: 0.05}, (0, 4), 4, 0, {0: "lambda", 2: "omega"}
    ),
}


@pytest.mark.parametrize("case", list(BREAKDOWNS))
def test_breakdown_pins_step_region_and_message(case):
    pb, a2, jump, want_step, want_region, kinds = BREAKDOWNS[case]
    sc = make_scenario()
    regions = [
        dataclasses.replace(r, pb=pb.get(i, r.pb), a2=a2.get(i, r.a2))
        for i, r in enumerate(sc.regions)
    ]
    sc = dataclasses.replace(sc, regions=regions)
    steps = sc.horizon + 1
    s = [[0.25] * 3 for _ in range(steps)]
    mu = [[0.1] * 3 for _ in range(steps)]
    if jump is not None:
        region, start = jump
        for t in range(start, steps):
            mu[t][region] = 1.0

    step_at, bad = oracle_breakdown(sc, s, mu)
    assert step_at == want_step
    assert {i: "omega" if om <= 0.0 else "lambda" for i, (om, _) in bad.items()} == kinds
    om, lam = bad[want_region]
    message = (
        f"damage or abatement fraction <= 0 at step {want_step}, region {want_region}"
        f" (omega = {om:.6g}, lambda = {lam:.6g})"
    )
    profile = ControlProfile(np.stack([np.array(s).T, np.array(mu).T], axis=-1))
    with pytest.raises(ModelBreakdownError) as exc_info:
        simulate(sc.x0, profile, sc)
    assert exc_info.value.step == want_step
    assert exc_info.value.region == want_region
    assert str(exc_info.value) == message


def test_late_breakdown_on_packaged_scenario(default_scenario):
    # Doubling every a2 drives Omega of region 6 below 0 at step 59 of the
    # 121 under constant controls. A rollout that tests the domain after its
    # loop runs past that step on capital that damage has made negative;
    # none of that may surface as a numpy warning ahead of the error.
    sc = default_scenario
    regions = [dataclasses.replace(r, a2=2.0 * r.a2) for r in sc.regions]
    hot = dataclasses.replace(sc, regions=regions)
    steps = hot.horizon + 1
    s = [[0.25] * hot.n_regions for _ in range(steps)]
    mu = [[0.0] * hot.n_regions for _ in range(steps)]
    step_at, bad = oracle_breakdown(hot, s, mu)
    assert (step_at, list(bad)) == (59, [6])
    om, lam = bad[6]
    message = (
        "damage or abatement fraction <= 0 at step 59, region 6"
        f" (omega = {om:.6g}, lambda = {lam:.6g})"
    )
    profile = ControlProfile.constant(hot.n_regions, hot.horizon, 0.25, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ModelBreakdownError) as exc_info:
            simulate(hot.x0, profile, hot)
    assert (exc_info.value.step, exc_info.value.region) == (59, 6)
    assert str(exc_info.value) == message


@pytest.mark.parametrize("t0", [0, 1, 7, 8])
def test_windowed_rollout_reproduces_full_rollout(small_scenario, rng, t0):
    sc = small_scenario
    assert t0 <= sc.horizon
    profile = random_profile(sc, sc.horizon + 1, rng)
    s_tn = np.ascontiguousarray(profile.saving.T)
    mu_tn = np.ascontiguousarray(profile.mu.T)
    full, _ = _forward(sc, sc.x0.to_vector(), s_tn, mu_tn)
    window, _ = _forward(sc, full.states[t0], s_tn[t0:], mu_tn[t0:], t0=t0)
    np.testing.assert_array_equal(window.states, full.states[t0:])
    for name in STEP_DIAGNOSTICS:
        np.testing.assert_array_equal(
            getattr(window, name), getattr(full, name)[t0:], err_msg=name
        )


def test_consumption_floor_flagged():
    poor = make_scenario()
    exo = poor.exo
    tiny = dataclasses.replace(
        poor,
        exo=dataclasses.replace(exo, tfp=exo.tfp * 1e-7),
        exo_spec=None,
    )
    profile = ControlProfile.constant(3, 4, 0.95, 0.0)
    traj = simulate(tiny.x0, profile, tiny)
    assert traj.consumption_floored.any()
    value = weighted_welfare(traj, profile, tiny.weights, tiny)
    assert np.isfinite(value)


def test_welfare_validation(small_scenario, rng):
    profile = random_profile(small_scenario, small_scenario.horizon + 1, rng)
    traj = simulate(small_scenario.x0, profile, small_scenario)
    other = ControlProfile.constant(3, 2, 0.25, 0.0)
    with pytest.raises(ModelDomainError):
        weighted_welfare(traj, other, small_scenario.weights, small_scenario)
    with pytest.raises(ModelDomainError):
        weighted_welfare(traj, profile, np.array([0.5, 0.5]), small_scenario)
    total = weighted_welfare(
        traj, profile, np.array([0.2, 0.3, 0.5]), small_scenario
    )
    parts = regional_welfare(traj, small_scenario)
    assert parts.shape == (3,)
    assert total == pytest.approx(0.2 * parts[0] + 0.3 * parts[1] + 0.5 * parts[2],
                                  rel=1e-12)


# ---------------------------------------------------------------------------
# Conservation-style properties
# ---------------------------------------------------------------------------


def test_zero_emission_mass_conservation():
    sc = make_scenario(length=210)
    exo = sc.exo
    sc = dataclasses.replace(
        sc,
        exo=dataclasses.replace(
            exo, sigma=np.zeros_like(exo.sigma), e_land=np.zeros_like(exo.e_land)
        ),
        exo_spec=None,
        horizon=200,
    )
    profile = ControlProfile.constant(3, 200, 0.25, 0.0)
    traj = simulate(sc.x0, profile, sc)
    masses = traj.states[:, 2:5].sum(axis=1)
    np.testing.assert_allclose(masses, masses[0], rtol=1e-9)


def test_zero_forcing_temperature_fixed_point():
    sc = make_scenario()
    exo = sc.exo
    sc = dataclasses.replace(
        sc,
        exo=dataclasses.replace(
            exo,
            sigma=np.zeros_like(exo.sigma),
            e_land=np.zeros_like(exo.e_land),
            f_ex=np.zeros_like(exo.f_ex),
        ),
        exo_spec=None,
        x0=dataclasses.replace(
            sc.x0, t_at=0.0, t_lo=0.0, m_at=sc.geo.m_at_1750
        ),
    )
    profile = ControlProfile.constant(3, sc.horizon, 0.25, 0.0)
    traj = simulate(sc.x0, profile, sc)
    # M_AT = M_1750 gives zero forcing only while the carbon state is at
    # equilibrium; with zero emissions the mix still relaxes, so check the
    # first step exactly and the temperature ordering after.
    assert traj.states[1, 0] == pytest.approx(0.0, abs=1e-12)
    assert traj.states[1, 1] == pytest.approx(0.0, abs=1e-12)


_WARMING_SCENARIO = make_scenario()


@settings(max_examples=20, deadline=None)
@given(
    t_at=st.floats(min_value=0.0, max_value=6.0),
    bump=st.floats(min_value=1e-6, max_value=1.0),
)
def test_damage_fraction_decreases_with_warming(t_at, bump):
    cooler = first_step(_WARMING_SCENARIO, t_at=t_at).damage_fraction[0]
    warmer = first_step(_WARMING_SCENARIO, t_at=t_at + bump).damage_fraction[0]
    assert np.all(warmer < cooler)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_oracle_agreement_property(seed):
    sc = make_scenario(horizon=5)
    consts = scenario_constants(sc)
    rng = np.random.default_rng(seed)
    profile = random_profile(sc, 6, rng)
    traj = simulate(sc.x0, profile, sc)
    s, mu = profile_to_lists(profile)
    states, _ = oracle_trajectory(consts, s, mu)
    np.testing.assert_allclose(traj.states, np.array(states), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Social cost of CO2
# ---------------------------------------------------------------------------


def test_scc_validation(small_scenario, rng):
    sc = small_scenario
    profile = random_profile(sc, sc.horizon + 1, rng)
    for steps in ([99], [-1], [0, sc.horizon + 1], [0.5], [[0]]):
        with pytest.raises(ModelDomainError):
            social_cost_of_co2(sc, sc.x0, profile, steps)
    controls = profile.controls.copy()
    controls[1, 3, 0] = 1.0  # region 1 consumes nothing at step 3
    starved = ControlProfile(controls)
    assert social_cost_of_co2(sc, sc.x0, starved, [2, 4]).shape == (2, 3)
    with pytest.raises(ModelDomainError, match="consumption floor"):
        social_cost_of_co2(sc, sc.x0, starved, [2, 3])


def test_scc_table_shape(small_scenario, rng):
    sc = small_scenario
    profile = random_profile(sc, sc.horizon + 1, rng)
    table = social_cost_of_co2(sc, sc.x0, profile)
    assert table.shape == (sc.horizon + 1, 3)
    np.testing.assert_array_equal(
        social_cost_of_co2(sc, sc.x0, profile, [4, 0, 4]), table[[4, 0, 4]]
    )
    assert social_cost_of_co2(sc, sc.x0, profile, []).shape == (0, 3)


def test_scc_positive_under_damages(small_scenario):
    profile = ControlProfile.constant(3, small_scenario.horizon, 0.25, 0.1)
    table = social_cost_of_co2(small_scenario, small_scenario.x0, profile, [0])
    assert np.all(table > 0.0)


def test_scc_zero_without_damages():
    sc = make_scenario()
    regions = [dataclasses.replace(r, a1=0.0, a2=0.0) for r in sc.regions]
    sc = dataclasses.replace(
        sc, regions=regions, damage_loss_2c=np.zeros(3)
    )
    profile = ControlProfile.constant(3, sc.horizon, 0.25, 0.1)
    assert np.all(np.abs(social_cost_of_co2(sc, sc.x0, profile, [0])) < 0.5)


def test_scc_matches_oracle_central_differences(small_scenario, rng):
    # Float64 central differences of this oracle miss the small late
    # entries by up to 2e-7 relative, too close to the 1e-6 bound, so the
    # reference runs at 40 digits, where these steps agree to about 1e-12.
    import mpmath

    sc = small_scenario
    steps = sc.horizon + 1
    n = sc.n_regions
    consts = scenario_constants(sc)
    profile = random_profile(sc, steps, rng, margin=0.05)
    s, mu = profile_to_lists(profile)
    consumption = oracle_trajectory(consts, s, mu)[1]["C"]
    table = social_cost_of_co2(sc, sc.x0, profile)

    # Emissions at the last two steps reach no welfare-relevant state.
    np.testing.assert_array_equal(table[-2:], 0.0)

    with mpmath.workdps(40):
        backend = MpBackend(mpmath)

        def welfare(i, t, de=0, dc=0):
            e_extra = [0] * steps
            e_extra[t] = de
            c_extra = [[0] * n for _ in range(steps)]
            c_extra[t][i] = dc
            weights = [1.0 if j == i else 0.0 for j in range(n)]
            return oracle_weighted_welfare(
                consts, s, mu, weights, backend, e_extra=e_extra, c_extra=c_extra
            )

        de = mpmath.mpf("1e-6")
        for t in range(steps - 2):
            for i in range(n):
                dc = de * consumption[t][i]
                dw_de = (welfare(i, t, de=de) - welfare(i, t, de=-de)) / (2 * de)
                dw_dc = (welfare(i, t, dc=dc) - welfare(i, t, dc=-dc)) / (2 * dc)
                ref = float(-1000 * dw_de / dw_dc)
                assert ref != 0.0
                assert abs(table[t, i] - ref) <= 1e-6 * abs(ref), (t, i, table[t, i], ref)


def test_batched_adjoint_rows_match_single_sweeps(small_scenario, rng):
    sc = small_scenario
    steps = sc.horizon + 1
    profile = random_profile(sc, steps, rng)
    s_tn = np.ascontiguousarray(profile.saving.T)
    mu_tn = np.ascontiguousarray(profile.mu.T)
    x0 = sc.x0.to_vector()
    weights = np.vstack([rng.uniform(0.0, 1.0, size=(3, 3)), np.eye(3)])
    f, gs, gmu, lam_mat, dudc = _adjoint_arrays(sc, x0, s_tn, mu_tn, weights)
    assert f.shape == (6,)
    assert gs.shape == gmu.shape == (steps, 6, 3)
    assert lam_mat.shape == (steps, 6)
    for j, w in enumerate(weights):
        f1, gs1, gmu1, lam1, dudc1 = _adjoint_arrays(sc, x0, s_tn, mu_tn, w)
        assert isinstance(f1, float)
        np.testing.assert_allclose(f[j], f1, rtol=1e-13, atol=0)
        np.testing.assert_allclose(gs[:, j], gs1, rtol=1e-13, atol=0)
        np.testing.assert_allclose(gmu[:, j], gmu1, rtol=1e-13, atol=0)
        np.testing.assert_allclose(lam_mat[:, j], lam1, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(dudc, dudc1)


def test_adjoint_forms_gradients_of_picked_regions_only(small_scenario, rng):
    sc = small_scenario
    steps = sc.horizon + 1
    profile = random_profile(sc, steps, rng)
    s_tn = np.ascontiguousarray(profile.saving.T)
    mu_tn = np.ascontiguousarray(profile.mu.T)
    x0 = sc.x0.to_vector()
    for weights in (rng.uniform(0.0, 1.0, size=3), rng.uniform(0.0, 1.0, size=(4, 3))):
        f, gs, gmu, lam_mat, dudc = _adjoint_arrays(sc, x0, s_tn, mu_tn, weights)
        for regions in ([2], [0, 2], []):
            out = _adjoint_arrays(sc, x0, s_tn, mu_tn, weights, regions=regions)
            assert out[1].shape == out[2].shape == gs.shape[:-1] + (len(regions),)
            np.testing.assert_array_equal(out[1], gs[..., regions])
            np.testing.assert_array_equal(out[2], gmu[..., regions])
            np.testing.assert_array_equal(out[3], lam_mat)
            np.testing.assert_array_equal(out[4], dudc)
            assert np.array_equal(out[0], f)
