"""Exogenous-path generation, weights, validation, and the file format."""

import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

from conftest import GEO, make_scenario

from rice_game.calibration import (
    CANONICAL_DEVELOPED,
    CANONICAL_REGIONS,
    ExogenousGrowthSpec,
    RegionGrowthSpec,
    ScenarioFormatError,
    build_default_scenario,
    calibrate_damage,
    generate_exogenous,
    load_scenario,
    negishi_weights,
    parse_scenario,
    save_scenario,
    serialize_scenario,
    validate_scenario,
)
from rice_game.model import (
    ControlProfile,
    ModelDomainError,
    simulate,
)


def two_region_spec(length=12):
    regions = (
        RegionGrowthSpec(
            tfp0=3.0, tfp_growth0=0.08, tfp_growth_decline=0.03,
            pop0=400.0, pop_asymptote=900.0, pop_convergence=0.15,
            sigma0=0.5, sigma_decline=0.04, e_land0=0.6, e_land_decline=0.1,
        ),
        RegionGrowthSpec(
            tfp0=1.0, tfp_growth0=0.12, tfp_growth_decline=0.02,
            pop0=1200.0, pop_asymptote=800.0, pop_convergence=0.08,
            sigma0=1.1, sigma_decline=0.05, e_land0=0.2, e_land_decline=0.07,
        ),
    )
    return ExogenousGrowthSpec(
        regions=regions, f_ex_start=0.4, f_ex_end=1.0,
        f_ex_ramp_steps=5, length=length,
    )


# ---------------------------------------------------------------------------
# Exogenous paths
# ---------------------------------------------------------------------------


def test_generate_exogenous_recursions():
    spec = two_region_spec()
    exo = generate_exogenous(spec)
    assert exo.tfp.shape == (12, 2)
    for i, r in enumerate(spec.regions):
        a, g, pop = r.tfp0, r.tfp_growth0, r.pop0
        for t in range(12):
            assert exo.tfp[t, i] == pytest.approx(a, rel=1e-15, abs=0)
            assert exo.labor[t, i] == pytest.approx(pop, rel=1e-15, abs=0)
            assert exo.sigma[t, i] == pytest.approx(
                r.sigma0 * (1.0 - r.sigma_decline) ** t, rel=1e-12
            )
            assert exo.e_land[t, i] == pytest.approx(
                r.e_land0 * (1.0 - r.e_land_decline) ** t, rel=1e-12
            )
            a *= 1.0 + g
            g *= 1.0 - r.tfp_growth_decline
            pop *= (r.pop_asymptote / pop) ** r.pop_convergence


def test_generate_exogenous_population_converges():
    spec = two_region_spec(length=300)
    exo = generate_exogenous(spec)
    for i, r in enumerate(spec.regions):
        assert exo.labor[-1, i] == pytest.approx(r.pop_asymptote, rel=1e-9, abs=0)
    # Convergence is monotone from either side. Once the remaining gap is
    # a few ulps the update factor rounds to 1.0 and the path goes flat, so
    # strict growth is only required while the gap is resolvable.
    rising, falling = exo.labor[:, 0], exo.labor[:, 1]
    asym0 = spec.regions[0].pop_asymptote
    asym1 = spec.regions[1].pop_asymptote
    assert np.all(np.diff(rising) >= 0.0)
    assert np.all(np.diff(rising)[rising[:-1] < asym0 * (1.0 - 1e-12)] > 0.0)
    assert np.all(np.diff(falling) <= 0.0)
    assert np.all(np.diff(falling)[falling[:-1] > asym1 * (1.0 + 1e-12)] < 0.0)


def test_generate_exogenous_forcing_ramp():
    spec = two_region_spec()
    exo = generate_exogenous(spec)
    assert exo.f_ex[0] == pytest.approx(0.4)
    assert exo.f_ex[5] == pytest.approx(1.0)
    np.testing.assert_allclose(exo.f_ex[5:], 1.0, rtol=1e-15)
    np.testing.assert_allclose(
        exo.f_ex[:6], 0.4 + (1.0 - 0.4) * np.arange(6) / 5.0, rtol=1e-15
    )


def test_generate_exogenous_rejects_short_length():
    with pytest.raises(ModelDomainError):
        generate_exogenous(dataclasses.replace(two_region_spec(), length=1))


# ---------------------------------------------------------------------------
# Damage calibration
# ---------------------------------------------------------------------------


def test_calibrate_damage_round_trip():
    a1, a2, a3 = calibrate_damage(0.0124)
    assert (a1, a3) == (0.0, 2.0)
    assert a2 == pytest.approx(0.0031, rel=1e-15, abs=0)
    sc = make_scenario()
    sc = dataclasses.replace(
        sc,
        regions=[dataclasses.replace(r, a1=a1, a2=a2, a3=a3) for r in sc.regions],
        x0=dataclasses.replace(sc.x0, t_at=2.0),
    )
    traj = simulate(sc.x0, ControlProfile.constant(3, 0, 0.25, 0.1), sc)
    np.testing.assert_allclose(traj.damage_fraction[0], 1.0 - 0.0124, rtol=1e-14)


def test_calibrate_damage_domain():
    assert calibrate_damage(0.0) == (0.0, 0.0, 2.0)
    with pytest.raises(ModelDomainError):
        calibrate_damage(1.0)
    with pytest.raises(ModelDomainError):
        calibrate_damage(-0.01)


# ---------------------------------------------------------------------------
# Negishi weights
# ---------------------------------------------------------------------------


def test_negishi_weights_normalized_positive(small_scenario):
    w = negishi_weights(small_scenario)
    assert w.shape == (3,)
    assert np.all(w > 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_negishi_weights_equalize_average_marginal_utility(small_scenario):
    sc = small_scenario
    w = negishi_weights(sc)
    profile = ControlProfile.constant(3, sc.horizon, 0.25, sc.mu_bounds[0])
    traj = simulate(sc.x0, profile, sc)
    labor = sc.exo.labor[: sc.horizon + 1]
    cpc = traj.consumption / labor
    alphas = np.array([r.alpha for r in sc.regions])
    marginal = np.mean(cpc ** (-alphas), axis=0)
    products = w * marginal
    np.testing.assert_allclose(products, products[0], rtol=1e-12)


def test_negishi_weights_equal_for_clone_regions():
    sc = make_scenario()
    spec = sc.exo_spec
    clones = (spec.regions[0], spec.regions[0], spec.regions[2])
    spec2 = dataclasses.replace(spec, regions=clones)
    regions = [sc.regions[0], sc.regions[0], sc.regions[2]]
    capital = sc.x0.capital.copy()
    capital[1] = capital[0]
    sc2 = dataclasses.replace(
        sc,
        regions=regions,
        exo=generate_exogenous(spec2),
        exo_spec=spec2,
        x0=dataclasses.replace(sc.x0, capital=capital),
        damage_loss_2c=sc.damage_loss_2c[[0, 0, 2]],
    )
    w = negishi_weights(sc2)
    assert w[0] == pytest.approx(w[1], rel=1e-12, abs=0)


def test_negishi_respects_savings_bounds():
    sc = make_scenario(s_bounds=(0.4, 0.6))
    # s_ref = 0.25 falls below the lower bound and must be clipped, not
    # rejected.
    w = negishi_weights(sc)
    assert np.all(w > 0.0)


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------


def test_validate_clean_scenarios(default_scenario, small_scenario):
    assert validate_scenario(default_scenario) == []
    assert validate_scenario(small_scenario) == []


def expect_violation(scenario, needle):
    messages = validate_scenario(scenario)
    assert any(needle in m for m in messages), (needle, messages)


def test_validate_catches_geo_problems(small_scenario):
    geo = small_scenario.geo
    bad = dataclasses.replace(small_scenario, geo=dataclasses.replace(geo, zeta11=0.5))
    expect_violation(bad, "column 0")
    bad = dataclasses.replace(small_scenario, geo=dataclasses.replace(geo, phi11=1.5))
    expect_violation(bad, "phi11")
    bad = dataclasses.replace(small_scenario, geo=dataclasses.replace(geo, eta=-1.0))
    expect_violation(bad, "eta")


def test_validate_catches_region_problems(small_scenario):
    regions = list(small_scenario.regions)
    regions[1] = dataclasses.replace(regions[1], theta2=0.9)
    expect_violation(
        dataclasses.replace(small_scenario, regions=regions), "theta2"
    )
    regions = list(small_scenario.regions)
    regions[0] = dataclasses.replace(regions[0], a2=regions[0].a2 * 2.0)
    expect_violation(
        dataclasses.replace(small_scenario, regions=regions), "damage at 2 degC"
    )


def test_validate_catches_exogenous_problems(small_scenario):
    exo = small_scenario.exo
    tfp = exo.tfp.copy()
    tfp[3, 1] = 0.0
    bad = dataclasses.replace(
        small_scenario, exo=dataclasses.replace(exo, tfp=tfp), exo_spec=None
    )
    expect_violation(bad, "tfp must be positive")
    bad = dataclasses.replace(small_scenario, horizon=small_scenario.exo.length)
    expect_violation(bad, "does not cover horizon")


def test_validate_catches_state_weight_bound_problems(small_scenario):
    bad = dataclasses.replace(
        small_scenario, x0=dataclasses.replace(small_scenario.x0, m_at=0.0)
    )
    expect_violation(bad, "m_at")
    bad = dataclasses.replace(small_scenario, weights=np.array([0.5, 0.4, 0.2]))
    expect_violation(bad, "weights sum")
    bad = dataclasses.replace(small_scenario, weights=np.array([1.2, -0.1, -0.1]))
    expect_violation(bad, "weights must be positive")
    bad = dataclasses.replace(small_scenario, s_bounds=(0.6, 0.4))
    expect_violation(bad, "savings bounds")
    bad = dataclasses.replace(small_scenario, mu_bounds=(-0.1, 1.0))
    expect_violation(bad, "mu bounds")


def test_validate_canonical_developed_cluster(default_scenario):
    developed = default_scenario.developed.copy()
    developed[3] = True
    bad = dataclasses.replace(default_scenario, developed=developed)
    expect_violation(bad, "developed cluster")


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def test_serialize_parse_round_trip(default_scenario):
    doc = serialize_scenario(default_scenario)
    again = parse_scenario(doc)
    np.testing.assert_array_equal(again.weights, default_scenario.weights)
    np.testing.assert_array_equal(again.exo.tfp, default_scenario.exo.tfp)
    np.testing.assert_array_equal(again.exo.f_ex, default_scenario.exo.f_ex)
    assert again.regions == default_scenario.regions
    assert again.geo == default_scenario.geo
    assert again.horizon == default_scenario.horizon
    assert tuple(again.region_names) == tuple(default_scenario.region_names)
    np.testing.assert_array_equal(again.developed, default_scenario.developed)
    np.testing.assert_array_equal(
        again.x0.to_vector(), default_scenario.x0.to_vector()
    )
    assert again.s_bounds == default_scenario.s_bounds
    assert again.mu_bounds == default_scenario.mu_bounds
    assert serialize_scenario(again) == doc


def test_serialize_requires_growth_spec(default_scenario):
    bare = dataclasses.replace(default_scenario, exo_spec=None)
    with pytest.raises(ModelDomainError):
        serialize_scenario(bare)


def test_save_load_round_trip(default_scenario, tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(default_scenario, path)
    again = load_scenario(path)
    assert serialize_scenario(again) == serialize_scenario(default_scenario)
    # A second save is byte-identical: floats round-trip exactly.
    path2 = tmp_path / "scenario2.json"
    save_scenario(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_default_matches_packaged_file(tmp_path):
    # Key order, float formatting and layout of a saved file are fixed.
    path = tmp_path / "default.json"
    save_scenario(build_default_scenario(), path)
    packaged = resources.files("rice_game").joinpath("data/default_scenario.json")
    assert path.read_bytes() == packaged.read_bytes()


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioFormatError):
        load_scenario(path)


def test_parse_rejects_wrong_version(default_scenario):
    doc = serialize_scenario(default_scenario)
    doc["schema_version"] = 2
    with pytest.raises(ScenarioFormatError, match="schema_version"):
        parse_scenario(doc)


def test_parse_rejects_non_object():
    with pytest.raises(ScenarioFormatError):
        parse_scenario([1, 2, 3])


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.__setitem__("surprise", 1), "surprise"),
        (lambda d: d.pop("weights"), "weights"),
        (lambda d: d["geo"].pop("phi11"), "phi11"),
        (lambda d: d["geo"].__setitem__("phi13", 0.1), "phi13"),
        (lambda d: d["regions"][0].pop("theta2"), "theta2"),
        (lambda d: d["regions"][5].__setitem__("colour", "red"), "colour"),
        (lambda d: d["exogenous"].pop("length"), "length"),
        (lambda d: d["exogenous"]["regions"][2].pop("tfp0"), "tfp0"),
        (lambda d: d["initial_state"].pop("m_at_gtc"), "m_at_gtc"),
        (lambda d: d["bounds"].__setitem__("s_mid", 0.5), "s_mid"),
    ],
)
def test_parse_rejects_unknown_and_missing_keys(default_scenario, mutate, needle):
    doc = json.loads(json.dumps(serialize_scenario(default_scenario)))
    mutate(doc)
    with pytest.raises(ScenarioFormatError, match=needle):
        parse_scenario(doc)


def test_parse_rejects_length_mismatches(default_scenario):
    doc = json.loads(json.dumps(serialize_scenario(default_scenario)))
    doc["exogenous"]["regions"] = doc["exogenous"]["regions"][:-1]
    with pytest.raises(ScenarioFormatError):
        parse_scenario(doc)
    doc = json.loads(json.dumps(serialize_scenario(default_scenario)))
    doc["weights"] = doc["weights"][:-1]
    with pytest.raises(ScenarioFormatError):
        parse_scenario(doc)
    doc = json.loads(json.dumps(serialize_scenario(default_scenario)))
    doc["initial_state"]["capital_trillion_usd"].append(1.0)
    with pytest.raises(ScenarioFormatError):
        parse_scenario(doc)


def set_leaf(doc, location, value):
    *parents, last = location
    for key in parents:
        doc = doc[key]
    doc[last] = value


WRONG_TYPES = [
    (("geo", "phi11"), "abc", "geo.phi11 must be a number"),
    (("geo", "phi11"), None, "geo.phi11 must be a number, not null"),
    (("geo", "phi11"), True, "geo.phi11 must be a number, not a boolean"),
    (("geo", "phi11"), 10**400, "geo.phi11 is too large"),
    (("weights",), "abc", "weights must be a list"),
    (("weights", 1), "0.1", r"weights\[1\] must be a number"),
    (("regions",), {}, "regions must be a list"),
    (("regions", 0), 1, r"regions\[0\] must be an object"),
    (("regions", 0, "developed"), "false", "developed must be a boolean"),
    (("regions", 0, "developed"), 0, "developed must be a boolean"),
    (("regions", 0, "name"), 7, "name must be a string"),
    (("geo",), [], "geo must be an object"),
    (("horizon",), 120.0, "horizon must be an integer"),
    (("exogenous", "length"), "x", "exogenous.length must be an integer"),
    (("exogenous", "length"), 181.5, "exogenous.length must be an integer"),
    (("exogenous", "f_ex_ramp_steps"), True, "f_ex_ramp_steps must be an integer"),
    (("exogenous", "regions", 3), [], r"exogenous.regions\[3\] must be an object"),
    (
        ("initial_state", "capital_trillion_usd"),
        5,
        "initial_state.capital_trillion_usd must be a list",
    ),
]


@pytest.mark.parametrize(
    "location,value,needle",
    WRONG_TYPES,
    ids=[f"{'.'.join(map(str, loc))}={value!r:.12}" for loc, value, _ in WRONG_TYPES],
)
def test_parse_rejects_values_of_wrong_type(default_scenario, location, value, needle):
    doc = json.loads(json.dumps(serialize_scenario(default_scenario)))
    set_leaf(doc, location, value)
    with pytest.raises(ScenarioFormatError, match=needle):
        parse_scenario(doc)


# Each file key and the attribute it sets, written out here independently
# of the format tables in calibration.py: a key swapped in both the parse
# and the write direction still round-trips, but fails against this map.
GEO_ATTRS = {
    "zeta11": "zeta11",
    "zeta12": "zeta12",
    "zeta21": "zeta21",
    "zeta22": "zeta22",
    "zeta23": "zeta23",
    "zeta32": "zeta32",
    "zeta33": "zeta33",
    "xi1_gtc_per_gtco2": "xi1",
    "phi11": "phi11",
    "phi12": "phi12",
    "phi21": "phi21",
    "phi22": "phi22",
    "xi2_degc_per_wm2": "xi2",
    "eta_wm2_per_doubling": "eta",
    "m_at_1750_gtc": "m_at_1750",
}
REGION_ATTRS = {
    "gamma": "gamma",
    "delta_k_per_year": "delta_k",
    "alpha": "alpha",
    "rho_per_year": "rho",
    "a1": "a1",
    "a2": "a2",
    "a3": "a3",
    "theta2": "theta2",
    "pb_usd_per_tco2": "pb",
    "delta_pb_per_step": "delta_pb",
}
REGION_LIST_ATTRS = {
    "name": "region_names",
    "developed": "developed",
    "damage_loss_at_2c": "damage_loss_2c",
}
EXO_ATTRS = {
    "length": "length",
    "f_ex_start_wm2": "f_ex_start",
    "f_ex_end_wm2": "f_ex_end",
    "f_ex_ramp_steps": "f_ex_ramp_steps",
}
EXO_REGION_ATTRS = {
    "tfp0": "tfp0",
    "tfp_growth0_per_step": "tfp_growth0",
    "tfp_growth_decline_per_step": "tfp_growth_decline",
    "pop0_millions": "pop0",
    "pop_asymptote_millions": "pop_asymptote",
    "pop_convergence_per_step": "pop_convergence",
    "sigma0_gtco2_per_trillion_usd": "sigma0",
    "sigma_decline_per_step": "sigma_decline",
    "e_land0_gtco2_per_year": "e_land0",
    "e_land_decline_per_step": "e_land_decline",
}
STATE_ATTRS = {
    "t_at_degc": "t_at",
    "t_lo_degc": "t_lo",
    "m_at_gtc": "m_at",
    "m_up_gtc": "m_up",
    "m_lo_gtc": "m_lo",
}
BOUNDS_ATTRS = {
    "s_min": ("s_bounds", 0),
    "s_max": ("s_bounds", 1),
    "mu_min": ("mu_bounds", 0),
    "mu_max": ("mu_bounds", 1),
}


def leaf_attributes(n):
    """(location in the document, getter on the parsed Scenario) per leaf."""
    yield ("horizon",), lambda sc: sc.horizon
    for k, a in GEO_ATTRS.items():
        yield ("geo", k), lambda sc, a=a: getattr(sc.geo, a)
    for k, a in EXO_ATTRS.items():
        yield ("exogenous", k), lambda sc, a=a: getattr(sc.exo_spec, a)
    for k, a in STATE_ATTRS.items():
        yield ("initial_state", k), lambda sc, a=a: getattr(sc.x0, a)
    for k, (a, j) in BOUNDS_ATTRS.items():
        yield ("bounds", k), lambda sc, a=a, j=j: getattr(sc, a)[j]
    for i in range(n):
        for k, a in REGION_ATTRS.items():
            yield ("regions", i, k), lambda sc, i=i, a=a: getattr(sc.regions[i], a)
        for k, a in REGION_LIST_ATTRS.items():
            yield ("regions", i, k), lambda sc, i=i, a=a: getattr(sc, a)[i]
        for k, a in EXO_REGION_ATTRS.items():
            yield (
                ("exogenous", "regions", i, k),
                lambda sc, i=i, a=a: getattr(sc.exo_spec.regions[i], a),
            )
        yield (
            ("initial_state", "capital_trillion_usd", i),
            lambda sc, i=i: sc.x0.capital[i],
        )
        yield ("weights", i), lambda sc, i=i: sc.weights[i]


def leaf_locations(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaf_locations(value, prefix + (key,))
        else:
            yield prefix + (key,)


def test_every_file_key_sets_its_own_attribute(default_scenario):
    doc = json.loads(json.dumps(serialize_scenario(default_scenario)))
    leaves = list(leaf_attributes(default_scenario.n_regions))
    expected = {loc for loc in leaf_locations(doc)} - {("schema_version",)}
    assert {loc for loc, _ in leaves} == expected
    # Give every leaf its own value (booleans flip, being two-valued).
    values = {}
    for k, (loc, _) in enumerate(leaves):
        old = doc
        for key in loc:
            old = old[key]
        if isinstance(old, bool):
            values[loc] = not old
        elif isinstance(old, str):
            values[loc] = f"region-{k}"
        elif isinstance(old, int):
            values[loc] = 200 + k
        else:
            values[loc] = 1e-3 * (k + 1)
        set_leaf(doc, loc, values[loc])
    sc = parse_scenario(doc)
    for loc, get in leaves:
        assert get(sc) == values[loc], loc
    assert serialize_scenario(sc) == doc


# ---------------------------------------------------------------------------
# Shipped default scenario
# ---------------------------------------------------------------------------


def test_default_scenario_shape(default_scenario):
    sc = default_scenario
    assert sc.n_regions == 12
    assert tuple(sc.region_names) == CANONICAL_REGIONS
    assert CANONICAL_DEVELOPED == ("US", "EU", "Japan", "OHI")
    developed = [nm for nm, d in zip(sc.region_names, sc.developed) if d]
    assert tuple(developed) == CANONICAL_DEVELOPED
    assert sc.horizon == 120
    assert sc.year(sc.horizon) == 2620
    assert sc.exo.length == 181
    assert sc.s_bounds == (0.05, 0.95)
    assert sc.mu_bounds == (0.0, 1.0)
    assert validate_scenario(sc) == []


def test_default_scenario_weights_are_negishi(default_scenario):
    w = negishi_weights(default_scenario)
    np.testing.assert_allclose(default_scenario.weights, w, rtol=0.0, atol=1e-15)


def test_default_scenario_horizon_override():
    sc = build_default_scenario(horizon=20)
    assert sc.horizon == 20
    assert validate_scenario(sc) == []
    too_long = build_default_scenario(horizon=200)
    assert any("does not cover" in m for m in validate_scenario(too_long))


def test_default_scenario_matches_conftest_geo(default_scenario):
    # The test-suite geo constants and the shipped file agree.
    assert default_scenario.geo == GEO
