"""Scenario construction: exogenous paths, damage fits, weights, file I/O.

A scenario file is a JSON document with top-level sections ``geo``,
``regions``, ``exogenous``, ``initial_state``, ``weights`` and ``bounds``
(plus ``schema_version`` and ``horizon``). Field names carry units.
Exogenous drivers are stored as generator parameters, not materialized
paths; generation is deterministic, so serialize/parse round-trips
reproduce a scenario exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from .model import (
    ControlProfile,
    ExogenousPaths,
    GeoParams,
    ModelDomainError,
    RegionParams,
    RiceGameError,
    RiceState,
    Scenario,
    simulate,
)

__all__ = [
    "SCHEMA_VERSION",
    "CANONICAL_REGIONS",
    "CANONICAL_DEVELOPED",
    "ScenarioFormatError",
    "RegionGrowthSpec",
    "ExogenousGrowthSpec",
    "generate_exogenous",
    "calibrate_damage",
    "negishi_weights",
    "validate_scenario",
    "parse_scenario",
    "serialize_scenario",
    "load_scenario",
    "save_scenario",
    "build_default_scenario",
]

SCHEMA_VERSION = 1

#: Longest exogenous path a scenario file may ask for (5,000 years; the
#: packaged file uses 181). The paths are generated step by step in Python
#: while parsing, so a typo such as 1810000 would cost seconds and hundreds
#: of MB before any check ran.
_MAX_EXOGENOUS_LENGTH = 1000

#: Canonical 12-region split; the first cluster below is developed.
CANONICAL_REGIONS = (
    "US",
    "EU",
    "Japan",
    "Russia",
    "Eurasia",
    "China",
    "India",
    "MidEast",
    "Africa",
    "LatAm",
    "OHI",
    "OthAsia",
)
CANONICAL_DEVELOPED = ("US", "EU", "Japan", "OHI")


class ScenarioFormatError(RiceGameError):
    """A scenario file is structurally invalid (bad keys, types, or version)."""


@dataclass(frozen=True)
class RegionGrowthSpec:
    """Generator parameters for one region's exogenous drivers.

    TFP grows by a factor (1 + g(t)) per step with g(t) itself declining
    geometrically; population converges monotonically to its asymptote;
    emission intensity and land-use emissions decay geometrically. Rates
    are per 5-year step.
    """

    tfp0: float
    tfp_growth0: float
    tfp_growth_decline: float
    pop0: float
    pop_asymptote: float
    pop_convergence: float
    sigma0: float
    sigma_decline: float
    e_land0: float
    e_land_decline: float


@dataclass(frozen=True)
class ExogenousGrowthSpec:
    """Generator parameters for all exogenous paths of a scenario."""

    regions: tuple[RegionGrowthSpec, ...]
    f_ex_start: float
    f_ex_end: float
    f_ex_ramp_steps: int
    length: int


def generate_exogenous(spec: ExogenousGrowthSpec) -> ExogenousPaths:
    """Materialize exogenous paths of shape (length, n) from a growth spec."""
    n = len(spec.regions)
    length = spec.length
    if length < 2:
        raise ModelDomainError("exogenous length must be at least 2")
    # TFP grows by (1 + g) per step while g shrinks by (1 - decline) per
    # step: two running products, multiplied in the order of the recursion.
    growth = np.empty((length, n))
    growth[0] = [r.tfp_growth0 for r in spec.regions]
    growth[1:] = [1.0 - r.tfp_growth_decline for r in spec.regions]
    growth = np.multiply.accumulate(growth, axis=0)
    tfp = np.empty((length, n))
    tfp[0] = [r.tfp0 for r in spec.regions]
    tfp[1:] = 1.0 + growth[:-1]
    tfp = np.multiply.accumulate(tfp, axis=0)
    labor = np.empty((length, n))
    sigma = np.empty((length, n))
    e_land = np.empty((length, n))
    tgrid = np.arange(length)
    for i, r in enumerate(spec.regions):
        # Population stays a scalar recursion: numpy's vector ``**`` can
        # round differently from Python's on some CPUs.
        pop = r.pop0
        for t in range(length):
            labor[t, i] = pop
            pop = pop * (r.pop_asymptote / pop) ** r.pop_convergence
        sigma[:, i] = r.sigma0 * (1.0 - r.sigma_decline) ** tgrid
        e_land[:, i] = r.e_land0 * (1.0 - r.e_land_decline) ** tgrid
    ramp = max(spec.f_ex_ramp_steps, 1)
    frac = np.minimum(np.arange(length) / ramp, 1.0)
    f_ex = spec.f_ex_start + (spec.f_ex_end - spec.f_ex_start) * frac
    return ExogenousPaths(tfp=tfp, labor=labor, sigma=sigma, e_land=e_land, f_ex=f_ex)


def calibrate_damage(loss_at_2c: float) -> tuple[float, float, float]:
    """Damage coefficients (a1, a2, a3) from the fractional loss at 2 degC.

    Uses the quadratic form a1 = 0, a3 = 2, a2 = loss / 4, so that
    1 - a1*2 - a2*2^a3 = 1 - loss.
    """
    if not 0.0 <= loss_at_2c < 1.0:
        raise ModelDomainError("loss at 2 degC must lie in [0, 1)")
    return 0.0, loss_at_2c / 4.0, 2.0


def negishi_weights(scenario: Scenario) -> np.ndarray:
    """Welfare weights that equalize weighted marginal utilities.

    Simulates the no-abatement baseline (mu = 0, s = 0.25, clipped into
    the scenario bounds) over the scenario horizon, time-averages
    each region's marginal utility of per-capita consumption and returns
    the normalized inverses.
    """
    s_lo, s_hi = scenario.s_bounds
    mu_lo, _ = scenario.mu_bounds
    s = min(max(0.25, s_lo), s_hi)
    profile = ControlProfile.constant(scenario.n_regions, scenario.horizon, s, mu_lo)
    traj = simulate(scenario.x0, profile, scenario)
    labor = scenario.exo.labor[: scenario.horizon + 1]
    cpc = traj.consumption / labor
    marginal = np.mean(cpc ** (-scenario._alpha), axis=0)
    w = 1.0 / marginal
    return w / w.sum()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check every scenario invariant; return a list of violation messages.

    An empty list means the scenario is valid.
    """
    v: list[str] = []
    geo = scenario.geo
    n = scenario.n_regions

    for name, val in dataclasses.asdict(geo).items():
        if not np.isfinite(val):
            v.append(f"geo.{name} is not finite")
    zmat = geo.carbon_matrix()
    if np.any(zmat < 0.0):
        v.append("carbon matrix has negative entries")
    cols = zmat.sum(axis=0)
    for j, s in enumerate(cols):
        if abs(s - 1.0) > 1e-6:
            v.append(f"carbon matrix column {j} sums to {s!r}, not 1 within 1e-6")
    for nm, val in (("phi11", geo.phi11), ("phi22", geo.phi22)):
        if not 0.0 < val < 1.0:
            v.append(f"geo.{nm} = {val!r} outside (0, 1)")
    for nm, val in (("phi12", geo.phi12), ("phi21", geo.phi21)):
        if not 0.0 <= val < 1.0:
            v.append(f"geo.{nm} = {val!r} outside [0, 1)")
    for nm, val in (
        ("xi1", geo.xi1),
        ("xi2", geo.xi2),
        ("eta", geo.eta),
        ("m_at_1750", geo.m_at_1750),
    ):
        if not val > 0.0:
            v.append(f"geo.{nm} = {val!r} must be positive")

    if len(scenario.region_names) != n:
        v.append("region_names length does not match regions")
    if scenario.developed.shape != (n,):
        v.append("developed flags length does not match regions")
    if scenario.damage_loss_2c.shape != (n,):
        v.append("damage_loss_2c length does not match regions")
    for i, r in enumerate(scenario.regions):
        tag = f"regions[{i}]"
        if not 0.0 < r.gamma < 1.0:
            v.append(f"{tag}.gamma = {r.gamma!r} outside (0, 1)")
        if not 0.0 <= r.delta_k <= 1.0:
            v.append(f"{tag}.delta_k = {r.delta_k!r} outside [0, 1]")
        if not r.alpha > 0.0:
            v.append(f"{tag}.alpha = {r.alpha!r} must be positive")
        if not r.rho >= 0.0:
            v.append(f"{tag}.rho = {r.rho!r} must be nonnegative")
        if not r.a2 >= 0.0:
            v.append(f"{tag}.a2 = {r.a2!r} must be nonnegative")
        if not r.theta2 > 1.0:
            v.append(f"{tag}.theta2 = {r.theta2!r} must exceed 1")
        if not r.pb > 0.0:
            v.append(f"{tag}.pb = {r.pb!r} must be positive")
        if not 0.0 <= r.delta_pb < 1.0:
            v.append(f"{tag}.delta_pb = {r.delta_pb!r} outside [0, 1)")
        if i < scenario.damage_loss_2c.size:
            implied = r.a1 * 2.0 + r.a2 * 2.0**r.a3
            ref = scenario.damage_loss_2c[i]
            if abs(implied - ref) > 1e-9:
                v.append(
                    f"{tag} damage at 2 degC is {implied!r}, reference loss"
                    f" is {ref!r} (tolerance 1e-9)"
                )

    exo = scenario.exo
    if exo.n_regions != n:
        v.append("exogenous paths region count does not match regions")
    for nm, arr in (
        ("tfp", exo.tfp),
        ("labor", exo.labor),
        ("sigma", exo.sigma),
        ("e_land", exo.e_land),
        ("f_ex", exo.f_ex),
    ):
        if not np.all(np.isfinite(arr)):
            v.append(f"exogenous {nm} contains non-finite values")
    if np.any(exo.tfp <= 0.0):
        v.append("exogenous tfp must be positive everywhere")
    if np.any(exo.labor <= 0.0):
        v.append("exogenous labor must be positive everywhere")
    if np.any(exo.sigma < 0.0):
        v.append("exogenous sigma must be nonnegative")
    if np.any(exo.e_land < 0.0):
        v.append("exogenous e_land must be nonnegative")
    if scenario.horizon < 1:
        v.append(f"horizon = {scenario.horizon} must be at least 1")
    if exo.length < scenario.horizon + 1:
        v.append(
            f"exogenous length {exo.length} does not cover horizon"
            f" {scenario.horizon} (needs horizon + 1)"
        )

    x0 = scenario.x0
    for nm, val in (("t_at", x0.t_at), ("t_lo", x0.t_lo)):
        if not np.isfinite(val):
            v.append(f"initial {nm} is not finite")
    for nm, val in (("m_at", x0.m_at), ("m_up", x0.m_up), ("m_lo", x0.m_lo)):
        if not val > 0.0:
            v.append(f"initial {nm} = {val!r} must be positive")
    if x0.capital.shape != (n,):
        v.append("initial capital length does not match regions")
    elif np.any(x0.capital <= 0.0):
        v.append("initial capital must be positive everywhere")

    w = scenario.weights
    if w.shape != (n,):
        v.append("weights length does not match regions")
    else:
        if np.any(w <= 0.0):
            v.append("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-9:
            v.append(f"weights sum to {w.sum()!r}, not 1 within 1e-9")

    if tuple(scenario.region_names) == CANONICAL_REGIONS:
        got = [bool(b) for b in scenario.developed]
        expect = [nm in CANONICAL_DEVELOPED for nm in CANONICAL_REGIONS]
        if got != expect:
            v.append(
                "developed cluster must be exactly {US, EU, Japan, OHI}"
                " for the canonical 12 regions"
            )

    s_lo, s_hi = scenario.s_bounds
    mu_lo, mu_hi = scenario.mu_bounds
    if not 0.0 <= s_lo < s_hi <= 1.0:
        v.append(f"savings bounds ({s_lo!r}, {s_hi!r}) invalid")
    if not 0.0 <= mu_lo < mu_hi <= 1.0:
        v.append(f"mu bounds ({mu_lo!r}, {mu_hi!r}) invalid")
    return v


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


class _Field(NamedTuple):
    """One file key of a section and the attribute it maps to.

    ``kind`` is the JSON type the key must hold: ``float`` (a number, not
    a boolean), ``int``, ``bool`` or ``str``; ``list`` for a list of
    numbers (a float array); a section table for a nested object; or
    ``[table]`` for a list of such objects.
    """

    key: str
    attr: str
    kind: object


def _f(key: str, attr: str | None = None, kind: object = float) -> _Field:
    """A field whose attribute is named like its key unless ``attr`` is given."""
    return _Field(key, attr or key, kind)


# The file format, one table per section in file order. Parsing, the
# unknown/missing key checks and serialization are all derived from these.
_GEO = (
    _f("zeta11"),
    _f("zeta12"),
    _f("zeta21"),
    _f("zeta22"),
    _f("zeta23"),
    _f("zeta32"),
    _f("zeta33"),
    _f("xi1_gtc_per_gtco2", "xi1"),
    _f("phi11"),
    _f("phi12"),
    _f("phi21"),
    _f("phi22"),
    _f("xi2_degc_per_wm2", "xi2"),
    _f("eta_wm2_per_doubling", "eta"),
    _f("m_at_1750_gtc", "m_at_1750"),
)

# A region row: RegionParams fields plus three per-region Scenario lists.
_REGION = (
    _f("name", "region_names", str),
    _f("developed", kind=bool),
    _f("gamma"),
    _f("delta_k_per_year", "delta_k"),
    _f("alpha"),
    _f("rho_per_year", "rho"),
    _f("a1"),
    _f("a2"),
    _f("a3"),
    _f("damage_loss_at_2c", "damage_loss_2c"),
    _f("theta2"),
    _f("pb_usd_per_tco2", "pb"),
    _f("delta_pb_per_step", "delta_pb"),
)
_COLUMNS = tuple(
    f.attr for f in _REGION if f.attr not in RegionParams.__dataclass_fields__
)

_EXO_REGION = (
    _f("tfp0"),
    _f("tfp_growth0_per_step", "tfp_growth0"),
    _f("tfp_growth_decline_per_step", "tfp_growth_decline"),
    _f("pop0_millions", "pop0"),
    _f("pop_asymptote_millions", "pop_asymptote"),
    _f("pop_convergence_per_step", "pop_convergence"),
    _f("sigma0_gtco2_per_trillion_usd", "sigma0"),
    _f("sigma_decline_per_step", "sigma_decline"),
    _f("e_land0_gtco2_per_year", "e_land0"),
    _f("e_land_decline_per_step", "e_land_decline"),
)

_EXO = (
    _f("length", kind=int),
    _f("f_ex_start_wm2", "f_ex_start"),
    _f("f_ex_end_wm2", "f_ex_end"),
    _f("f_ex_ramp_steps", kind=int),
    _f("regions", kind=[_EXO_REGION]),
)

_STATE = (
    _f("t_at_degc", "t_at"),
    _f("t_lo_degc", "t_lo"),
    _f("m_at_gtc", "m_at"),
    _f("m_up_gtc", "m_up"),
    _f("m_lo_gtc", "m_lo"),
    _f("capital_trillion_usd", "capital", list),
)

# In order, the flattened (s_bounds, mu_bounds) of the Scenario.
_BOUNDS = (_f("s_min"), _f("s_max"), _f("mu_min"), _f("mu_max"))

_SCENARIO = (
    _f("schema_version", kind=int),
    _f("horizon", kind=int),
    _f("geo", kind=_GEO),
    _f("regions", kind=[_REGION]),
    _f("exogenous", "exo_spec", _EXO),
    _f("initial_state", "x0", _STATE),
    _f("weights", kind=list),
    _f("bounds", kind=_BOUNDS),
)

_JSON_NAMES = {
    dict: "an object",
    list: "a list",
    float: "a number",
    int: "an integer",
    bool: "a boolean",
    str: "a string",
    type(None): "null",
}
_SCALARS = (float, int, bool, str)


def _type_error(value, kind: type, path: str) -> ScenarioFormatError:
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    return ScenarioFormatError(f"{path} must be {_JSON_NAMES[kind]}, not {got}")


def _read(value, kind, path: str):
    """Check a JSON value against its declared kind and convert it.

    A section becomes a dict from attribute name to converted value.
    """
    if kind in _SCALARS:
        # Python's bool is an int; only a boolean field takes true/false.
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) is not (kind is bool) or not isinstance(
            value, accepted
        ):
            raise _type_error(value, kind, path)
        if kind is not float:
            return value
        try:
            value = float(value)
        except OverflowError:
            raise ScenarioFormatError(f"{path} is too large for a float") from None
        # Python's json reads NaN, Infinity and overlong literals as floats.
        if not math.isfinite(value):
            raise ScenarioFormatError(f"{path} must be a finite number, not {value!r}")
        return value
    container = dict if isinstance(kind, tuple) else list
    if not isinstance(value, container):
        raise _type_error(value, container, path)
    if container is list:
        item = float if kind is list else kind[0]
        items = [_read(v, item, f"{path}[{i}]") for i, v in enumerate(value)]
        return np.array(items) if kind is list else items
    prefix = f"{path}." if path else ""
    missing = [f.key for f in kind if f.key not in value]
    if missing or len(value) != len(kind):
        unknown = sorted(set(value).difference(f.key for f in kind))
        problem, key = ("unknown", unknown[0]) if unknown else ("missing", missing[0])
        raise ScenarioFormatError(f"{problem} key {prefix}{key} in scenario file")
    out = {}
    for key, attr, sub in kind:
        v = value[key]
        # Plain finite JSON floats, the bulk of a file, need no conversion.
        fast = sub is float and type(v) is float and math.isfinite(v)
        out[attr] = v if fast else _read(v, sub, prefix + key)
    return out


def _write(value, kind):
    """Inverse of :func:`_read`: a section's value is an object or a dict."""
    if isinstance(kind, list):
        return [_write(v, kind[0]) for v in value]
    if kind is list:
        return [float(x) for x in value]
    attrs = value if isinstance(value, dict) else vars(value)
    return {
        key: sub(attrs[attr]) if sub in _SCALARS else _write(attrs[attr], sub)
        for key, attr, sub in kind
    }


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed scenario document.

    Raises :class:`ScenarioFormatError` on structural problems (wrong
    version, unknown or missing keys, values of the wrong JSON type,
    mismatched lengths). Semantic invariants are checked separately by
    :func:`validate_scenario`.
    """
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    d = _read(doc, _SCENARIO, "")
    rows = d["regions"]
    if not rows:
        raise ScenarioFormatError("regions must be a non-empty list")
    exo = d["exo_spec"]
    if exo["length"] > _MAX_EXOGENOUS_LENGTH:
        raise ScenarioFormatError(
            f"exogenous.length {exo['length']} exceeds {_MAX_EXOGENOUS_LENGTH} steps"
        )
    for path, size in (
        ("exogenous.regions", len(exo["regions"])),
        ("initial_state.capital_trillion_usd", d["x0"]["capital"].size),
        ("weights", d["weights"].size),
    ):
        if size != len(rows):
            raise ScenarioFormatError(f"{path} length does not match regions")
    growth = tuple(RegionGrowthSpec(**g) for g in exo["regions"])
    exo_spec = ExogenousGrowthSpec(**{**exo, "regions": growth})
    columns = {a: [row.pop(a) for row in rows] for a in _COLUMNS}
    s_min, s_max, mu_min, mu_max = d["bounds"].values()
    return Scenario(
        geo=GeoParams(**d["geo"]),
        regions=[RegionParams(**row) for row in rows],
        exo=generate_exogenous(exo_spec),
        x0=RiceState(**d["x0"]),
        horizon=d["horizon"],
        weights=d["weights"],
        s_bounds=(s_min, s_max),
        mu_bounds=(mu_min, mu_max),
        exo_spec=exo_spec,
        **columns,
    )


def serialize_scenario(scenario: Scenario) -> dict:
    """Turn a Scenario back into a scenario document (JSON-ready dict).

    Requires the scenario to carry its exogenous growth spec (scenarios
    built from files always do).
    """
    if not isinstance(scenario.exo_spec, ExogenousGrowthSpec):
        raise ModelDomainError(
            "scenario has no exogenous growth spec; cannot serialize"
        )
    rows = [
        {**vars(r), **{a: getattr(scenario, a)[i] for a in _COLUMNS}}
        for i, r in enumerate(scenario.regions)
    ]
    bounds = (*scenario.s_bounds, *scenario.mu_bounds)
    attrs = {
        **vars(scenario),
        "schema_version": SCHEMA_VERSION,
        "regions": rows,
        "bounds": {f.attr: b for f, b in zip(_BOUNDS, bounds)},
    }
    return _write(attrs, _SCENARIO)


def load_scenario(path) -> Scenario:
    """Parse a scenario file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"scenario file is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"scenario file is not UTF-8: {exc}") from exc
    return parse_scenario(doc)


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario file; floats round-trip exactly."""
    doc = serialize_scenario(scenario)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def build_default_scenario() -> Scenario:
    """Load the packaged 12-region default scenario.

    Override its horizon with ``dataclasses.replace(scenario, horizon=h)``
    (the exogenous paths must still cover it).
    """
    ref = resources.files("rice_game").joinpath("data/default_scenario.json")
    doc = json.loads(ref.read_text(encoding="utf-8"))
    return parse_scenario(doc)
