"""Shared fixtures: the packaged scenario and a small fast scenario."""

import os
from pathlib import Path

import numpy as np
import pytest

import rice_game
from rice_game import build_default_scenario
from rice_game.calibration import ExogenousGrowthSpec, RegionGrowthSpec, generate_exogenous
from rice_game.model import GeoParams, RegionParams, RiceState, Scenario

# DICE-2016 style geophysics shared by the small test scenarios.
GEO = GeoParams(
    zeta11=0.88,
    zeta12=0.196,
    zeta21=0.12,
    zeta22=0.797,
    zeta23=0.0014651162790697675,
    zeta32=0.007,
    zeta33=0.9985348837209302,
    xi1=1.3636363636363635,
    phi11=0.8718106290322581,
    phi12=0.008844,
    phi21=0.025,
    phi22=0.975,
    xi2=0.1005,
    eta=3.6813,
    m_at_1750=588.0,
)


def make_scenario(
    n=3,
    horizon=8,
    length=40,
    alpha=1.25,
    rho=0.01,
    a1=0.0,
    weights=None,
    s_bounds=(0.05, 0.95),
    mu_bounds=(0.0, 1.0),
):
    """Small n-region scenario with mildly heterogeneous parameters."""
    regions = []
    growth = []
    losses = []
    for i in range(n):
        loss = 0.005 + 0.002 * i
        losses.append(loss)
        regions.append(
            RegionParams(
                gamma=0.3,
                delta_k=0.1,
                alpha=alpha if np.isscalar(alpha) else alpha[i],
                rho=rho,
                a1=a1 if np.isscalar(a1) else a1[i],
                a2=loss / 4.0,
                a3=2.0,
                theta2=2.8,
                pb=900.0 + 150.0 * i,
                delta_pb=0.03,
            )
        )
        growth.append(
            RegionGrowthSpec(
                tfp0=3.0 + 0.5 * i,
                tfp_growth0=0.06,
                tfp_growth_decline=0.02,
                pop0=500.0 + 200.0 * i,
                pop_asymptote=700.0 + 150.0 * i,
                pop_convergence=0.1,
                sigma0=0.4 + 0.2 * i,
                sigma_decline=0.06,
                e_land0=0.3,
                e_land_decline=0.1,
            )
        )
    spec = ExogenousGrowthSpec(
        regions=tuple(growth),
        f_ex_start=0.5,
        f_ex_end=0.8,
        f_ex_ramp_steps=16,
        length=length,
    )
    if weights is None:
        weights = np.full(n, 1.0 / n)
    return Scenario(
        geo=GEO,
        regions=regions,
        exo=generate_exogenous(spec),
        x0=RiceState(
            t_at=1.1,
            t_lo=0.05,
            m_at=878.0,
            m_up=471.0,
            m_lo=1741.0,
            capital=np.array([10.0 + 5.0 * i for i in range(n)]),
        ),
        horizon=horizon,
        weights=np.asarray(weights, dtype=float),
        region_names=[f"R{i}" for i in range(n)],
        developed=np.array([i == 0 for i in range(n)]),
        damage_loss_2c=np.array(losses),
        s_bounds=s_bounds,
        mu_bounds=mu_bounds,
        exo_spec=spec,
    )


#: Region 1's linear damage coefficient in :func:`linear_damage_scenario`:
#: at T_AT = 2 degC its a1 * T_AT is 0.29 times its a2 * T_AT**2.
LINEAR_DAMAGE_A1 = (0.0, 0.001, 0.0)


def linear_damage_scenario(**kwargs):
    """The small scenario with a1 != 0 in region 1, so that the rollout takes
    its linear damage term (every other test scenario has a1 = 0)."""
    return make_scenario(a1=LINEAR_DAMAGE_A1, **kwargs)


def random_profile(scenario, steps, rng, margin=0.0):
    """Feasible random profile; margin shrinks the box from both sides."""
    lo, hi = scenario.control_lower(), scenario.control_upper()
    span = hi - lo
    u = rng.uniform(lo + margin * span, hi - margin * span,
                    size=(scenario.n_regions, steps, 2))
    from rice_game.model import ControlProfile

    return ControlProfile(u)


def checkout_env():
    """Environment for a fresh interpreter that imports this checkout."""
    package_root = str(Path(rice_game.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env


@pytest.fixture(scope="session")
def default_scenario():
    return build_default_scenario()


@pytest.fixture()
def small_scenario():
    return make_scenario()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
