"""Exact-answer variants of the packaged scenario: engine and solution relations.

Four variants of the packaged scenario have answers known in closed form.

* Twin split: one region is replaced by two copies, each with half its
  labor, capital and land-use emissions, at the same welfare weight. Output
  Y = A K^gamma L^(1-gamma) is homogeneous of degree 1 and welfare is
  L u(C/L), so the climate path does not change, each twin's welfare is
  half the original's, and, as the split welfare at equal twin controls is
  the original welfare, each twin's gradient is half the original's. The
  split social optimum plays the original controls in both twins.
* Region permutation: relabelling the regions permutes every per-region
  state column and flow, and the optimum, and leaves the climate alone.
* One region: the Nash equilibrium is the social optimum.
* Lossless (no climate damage): the regions decouple, so the Nash
  equilibrium is the social optimum.

The engine relations hold to rounding only: (L/2)^(1-gamma) and (K/2)^gamma
are not exact halvings in floating point, and a permutation reorders the
sums over regions. ``RTOL`` is about four times the largest gap measured on
the packaged scenario at T=30 under the profile below (numpy 2.4.6, x86-64),
each gap taken relative to the largest magnitude compared. Over the twin
split of each of the 12 regions: climate states 4.6e-16 (T_AT within one
unit in the last place), twin welfares 1.6e-16 from half the original's
(0 for 11 of the 12), twin gradients x2 2.9e-16 from the original's. Over
five permutations: climate states 3.1e-16, regional flows 1.5e-16, total
emissions and forcing 2.9e-16, regional welfares 0.

The solution relations are asserted exactly where the solvers reproduce
them bit for bit, and otherwise at the resolution the solvers reach today,
each bound about four times the gap measured in the same set-up (numpy
2.4.6, x86-64, with and without AVX-512). Three exact answers do not hold
yet and are not asserted: the lossless optimum's abatement is not 0 (up to
0.019 at T=20), the twins' optimal controls are up to 3.4e-2 away from the
original region's, and the lossless Nash play's controls are up to 1.1e-2
away from the optimum's. Those are the flat directions in which the solves
stop short of the optimum.
"""

import dataclasses

import numpy as np
import pytest

from rice_game import (
    ControlProfile,
    ExogenousPaths,
    rba_dg,
    regional_welfare,
    simulate,
    solve_swm,
    verify_epsilon_ne,
)
from rice_game.solver import gradient_adjoint

HORIZON = 30
RTOL = 2e-15
FLOWS = ("gross_output", "net_output", "consumption", "abatement_fraction",
         "damage_fraction", "emissions")


def with_columns(scenario, index, scale=None):
    """The scenario whose region j is region ``index[j]`` of ``scenario``.

    ``scale[j]`` multiplies region j's labor, capital and land-use
    emissions (default 1). The derived tables rebuild through
    :func:`dataclasses.replace`; the growth spec no longer describes the
    paths, so it is dropped.
    """
    index = np.asarray(index)
    scale = np.ones(index.size) if scale is None else np.asarray(scale, dtype=float)
    exo = scenario.exo
    return dataclasses.replace(
        scenario,
        regions=[scenario.regions[i] for i in index],
        exo=ExogenousPaths(
            tfp=exo.tfp[:, index],
            labor=exo.labor[:, index] * scale,
            sigma=exo.sigma[:, index],
            e_land=exo.e_land[:, index] * scale,
            f_ex=exo.f_ex,
        ),
        x0=dataclasses.replace(scenario.x0, capital=scenario.x0.capital[index] * scale),
        weights=scenario.weights[index],
        region_names=[scenario.region_names[i] for i in index],
        developed=scenario.developed[index],
        damage_loss_2c=scenario.damage_loss_2c[index],
        exo_spec=None,
    )


def twin_split(scenario, region):
    """``scenario`` with ``region`` split into itself and a last region, each
    with half its labor, capital and land-use emissions; and the column index."""
    n = scenario.n_regions
    index = [*range(n), region]
    scale = np.ones(n + 1)
    scale[[region, n]] = 0.5
    return with_columns(scenario, index, scale), index


def assert_close(actual, desired, rtol=RTOL):
    """Equal to within ``rtol`` of the largest magnitude in ``desired``."""
    desired = np.asarray(desired, dtype=float)
    np.testing.assert_allclose(actual, desired, rtol=0, atol=rtol * np.abs(desired).max())


@pytest.fixture(scope="module")
def scenario(default_scenario):
    return dataclasses.replace(default_scenario, horizon=HORIZON)


@pytest.fixture(scope="module")
def profile(scenario):
    # A varied interior profile: every region and step plays its own controls.
    rng = np.random.default_rng(20)
    lo, hi = scenario.control_lower(), scenario.control_upper()
    span = hi - lo
    u = rng.uniform(lo + 0.1 * span, hi - 0.1 * span,
                    size=(scenario.n_regions, HORIZON + 1, 2))
    return ControlProfile(u)


def test_twin_split_halves_welfare_and_gradient(scenario, profile):
    n = scenario.n_regions
    traj = simulate(scenario.x0, profile, scenario)
    welfare = regional_welfare(traj, scenario)
    grad = gradient_adjoint(profile, scenario, scenario.weights).reshape(n, -1)
    for region in range(n):
        split, index = twin_split(scenario, region)
        split_profile = ControlProfile(profile.controls[index])
        twin = simulate(split.x0, split_profile, split)
        assert_close(twin.states[:, :5], traj.states[:, :5])

        halves = regional_welfare(twin, split)
        assert_close(halves[[region, n]], np.full(2, welfare[region] / 2))
        others = [i for i in range(n) if i != region]
        assert_close(halves[others], welfare[others])

        twin_grad = gradient_adjoint(split_profile, split, split.weights).reshape(n + 1, -1)
        for i in (region, n):
            assert_close(2.0 * twin_grad[i], grad[region])
        assert_close(twin_grad[others], grad[others])


def test_region_permutation_permutes_states_and_flows(scenario, profile):
    traj = simulate(scenario.x0, profile, scenario)
    welfare = regional_welfare(traj, scenario)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(scenario.n_regions)
        permuted = with_columns(scenario, perm)
        moved = simulate(permuted.x0, ControlProfile(profile.controls[perm]), permuted)
        assert_close(moved.states[:, :5], traj.states[:, :5])
        assert_close(moved.states[:, 5:], traj.states[:, 5 + perm])
        for name in FLOWS:
            assert_close(getattr(moved, name), getattr(traj, name)[:, perm])
        np.testing.assert_array_equal(moved.consumption_floored,
                                      traj.consumption_floored[:, perm])
        assert_close(moved.total_emissions, traj.total_emissions)
        assert_close(moved.forcing, traj.forcing)
        assert_close(regional_welfare(moved, permuted), welfare[perm])


# ---------------------------------------------------------------------------
# Solution relations, from one-start solves at T=20 and T=30
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scenario20(default_scenario):
    return dataclasses.replace(default_scenario, horizon=20)


def region_index(scenario, name):
    return list(scenario.region_names).index(name)


@pytest.mark.parametrize("name", ["EU", "US", "China"])
def test_one_region_nash_play_stays_at_its_optimum(scenario20, name):
    alone = with_columns(scenario20, [region_index(scenario20, name)])
    swm = solve_swm(alone)
    rba = rba_dg(alone, swm.profile)
    # The first round's best response stops where it starts: one round,
    # the optimum's bits, and no unilateral gain.
    assert len(rba.episodes) == 2
    assert rba.converged
    assert rba.profile.controls.tobytes() == swm.profile.controls.tobytes()
    cert = verify_epsilon_ne(alone, rba.profile)
    assert cert.epsilon == 0.0
    assert cert.converged


@pytest.mark.parametrize("name", ["US", "China"])
def test_twin_split_optimum_plays_equal_twins(scenario, name):
    region = region_index(scenario, name)
    split, _ = twin_split(scenario, region)
    got = solve_swm(split)
    controls = got.profile.controls
    assert controls[region].tobytes() == controls[-1].tobytes()
    # The split optimum's welfare is the original's; measured 2.8e-10 (US)
    # and 2.4e-8 (China) below it.
    want = solve_swm(scenario).welfare
    assert abs(got.welfare - want) <= 6e-8 * abs(want)


def test_region_permutation_permutes_the_optimum(scenario20):
    want = solve_swm(scenario20)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(scenario20.n_regions)
        got = solve_swm(with_columns(scenario20, perm))
        # Measured over the five: welfare 1.6e-16 relative, controls 4.4e-13.
        assert abs(got.welfare - want.welfare) <= 7e-16 * abs(want.welfare)
        assert np.abs(got.profile.controls - want.profile.controls[perm]).max() <= 2e-12


def test_lossless_nash_play_reaches_the_optimums_welfare(scenario20):
    lossless = dataclasses.replace(
        scenario20,
        regions=[dataclasses.replace(r, a1=0.0, a2=0.0) for r in scenario20.regions],
        damage_loss_2c=np.zeros(scenario20.n_regions),
    )
    swm = solve_swm(lossless)
    rba = rba_dg(lossless, swm.profile)
    assert len(rba.episodes) == 3  # two rounds
    assert rba.converged
    # Measured: regional welfares 1.9e-8 relative from the optimum's,
    # epsilon 7.3e-11.
    np.testing.assert_allclose(
        regional_welfare(rba.trajectory, lossless), swm.regional_welfare, rtol=8e-8, atol=0
    )
    assert verify_epsilon_ne(lossless, rba.profile).epsilon <= 3e-10
