"""Exact-answer variants of the packaged scenario: engine relations.

Two variants of the packaged scenario have answers known in closed form.

* Twin split: one region is replaced by two copies, each with half its
  labor, capital and land-use emissions, at the same welfare weight. Output
  Y = A K^gamma L^(1-gamma) is homogeneous of degree 1 and welfare is
  L u(C/L), so the climate path does not change, each twin's welfare is
  half the original's, and, as the split welfare at equal twin controls is
  the original welfare, each twin's gradient is half the original's.
* Region permutation: relabelling the regions permutes every per-region
  state column and flow and leaves the climate alone.

Each relation holds to rounding only: (L/2)^(1-gamma) and (K/2)^gamma are
not exact halvings in floating point, and a permutation reorders the sums
over regions. ``RTOL`` is about four times the largest gap measured on the
packaged scenario at T=30 under the profile below (numpy 2.4.6, x86-64),
each gap taken relative to the largest magnitude compared. Over the twin
split of each of the 12 regions: climate states 4.6e-16 (T_AT within one
unit in the last place), twin welfares 1.6e-16 from half the original's
(0 for 11 of the 12), twin gradients x2 2.9e-16 from the original's. Over
five permutations: climate states 3.1e-16, regional flows 1.5e-16, total
emissions and forcing 2.9e-16, regional welfares 0.
"""

import dataclasses

import numpy as np
import pytest

from rice_game import (
    ControlProfile,
    ExogenousPaths,
    regional_welfare,
    simulate,
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
        index = [*range(n), region]
        scale = np.ones(n + 1)
        scale[[region, n]] = 0.5
        split = with_columns(scenario, index, scale)
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
