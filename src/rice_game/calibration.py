"""Scenario construction: exogenous paths, damage fits, weights, file I/O.

A scenario file is a JSON document with top-level sections ``geo``,
``regions``, ``exogenous``, ``initial_state``, ``weights`` and ``bounds``
(plus ``schema_version`` and ``horizon``). Field names carry units.
Exogenous drivers are stored as generator parameters, not materialized
paths; generation is deterministic, so serialize/parse round-trips
reproduce a scenario exactly.
"""

from __future__ import annotations

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

    An empty list means the scenario is valid. Each file key's own range is
    read from the format tables; the rules across keys are written here.
    """
    n = scenario.n_regions
    v = _leaf_problems(vars(scenario.geo), _GEO, "geo.")
    zmat = scenario.geo.carbon_matrix()
    if np.any(zmat < 0.0):
        v.append("carbon matrix has negative entries")
    for j, s in enumerate(zmat.sum(axis=0)):
        if abs(s - 1.0) > 1e-6:
            v.append(f"carbon matrix column {j} sums to {s!r}, not 1 within 1e-6")

    for a in _COLUMNS:
        if np.shape(getattr(scenario, a)) != (n,):
            v.append(f"{a} length does not match regions")
    columns = [(a, np.ravel(getattr(scenario, a)).tolist()) for a in _COLUMNS]
    for i, r in enumerate(scenario.regions):
        row = {**vars(r), **{a: col[i] for a, col in columns if i < len(col)}}
        v += _leaf_problems(row, _REGION, f"regions[{i}].")
        if i < scenario.damage_loss_2c.size:
            # A 2**a3 too large for a float gives inf or NaN, which fails the test.
            with np.errstate(over="ignore", invalid="ignore"):
                implied = float(r.a1 * 2.0 + r.a2 * np.power(2.0, r.a3))
            ref = scenario.damage_loss_2c[i]
            if not abs(implied - ref) <= 1e-9:
                v.append(
                    f"regions[{i}] damage at 2 degC is {implied!r}, reference loss"
                    f" is {ref!r} (tolerance 1e-9)"
                )

    exo = scenario.exo
    if exo.n_regions != n:
        v.append("exogenous paths region count does not match regions")
    for nm in ("tfp", "labor", "sigma", "e_land", "f_ex"):
        if not np.all(np.isfinite(getattr(exo, nm))):
            v.append(f"exogenous {nm} contains non-finite values")
    for nm in ("tfp", "labor"):
        if np.any(getattr(exo, nm) <= 0.0):
            v.append(f"exogenous {nm} must be positive everywhere")
    for nm in ("sigma", "e_land"):
        if np.any(getattr(exo, nm) < 0.0):
            v.append(f"exogenous {nm} must be nonnegative")
    if scenario.horizon < 1:
        v.append(f"horizon = {scenario.horizon} must be at least 1")
    if exo.length < scenario.horizon + 1:
        v.append(
            f"exogenous length {exo.length} does not cover horizon"
            f" {scenario.horizon} (needs horizon + 1)"
        )

    v += _leaf_problems(vars(scenario.x0), _STATE, "initial_state.")
    if scenario.x0.capital.shape != (n,):
        v.append("initial capital length does not match regions")
    # The top level's one numeric leaf is ``weights``.
    v += _leaf_problems(vars(scenario), _SCENARIO, "")
    w = scenario.weights
    if w.shape != (n,):
        v.append("weights length does not match regions")
    elif abs(w.sum() - 1.0) > 1e-9:
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


def _leaf_problems(attrs: dict, kind, prefix: str) -> list[str]:
    """A message for each number of a section's float and list leaves that is
    not finite or outside its interval; ``attrs`` maps attribute to value."""
    v = []
    for key, attr, sub, (interval, lo, hi, open_lo, open_hi) in kind:
        if (sub is not float and sub is not list) or attr not in attrs:
            continue
        value = attrs[attr]
        items = enumerate(np.ravel(value).tolist()) if sub is list else ((None, value),)
        for i, x in items:
            # An open infinite end fails on +-inf, and every comparison on NaN.
            if (lo < x if open_lo else lo <= x) and (x < hi if open_hi else x <= hi):
                continue
            path = prefix + key if i is None else f"{prefix}{key}[{i}]"
            if not math.isfinite(x):
                v.append(f"{path} must be finite, not {x!r}")
            else:
                v.append(f"{path} must lie in {interval}, not {x!r}")
    return v


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


class _Field(NamedTuple):
    """One file key of a section and the attribute it maps to.

    ``kind`` is the JSON type the key must hold: ``float`` (a number, not
    a boolean), ``int``, ``bool`` or ``str``; ``list`` for a list of
    numbers (a float array); a section table for a nested object; or
    ``[table]`` for a list of such objects. Each number of a ``float`` or
    ``list`` leaf must be finite and lie in ``interval``: its text, such as
    ``(0, 1]`` or ``[0, inf)``, its two ends and whether each end is open.
    """

    key: str
    attr: str
    kind: object
    interval: tuple[str, float, float, bool, bool]


def _f(
    key: str, attr: str | None = None, kind: object = float, interval: str = "(-inf, inf)"
) -> _Field:
    """A field whose attribute is named like its key unless ``attr`` is given."""
    lo, hi = map(float, interval[1:-1].split(","))
    ends = (interval, lo, hi, interval[0] == "(", interval[-1] == ")")
    return _Field(key, attr or key, kind, ends)


# The file format, one table per section in file order. Parsing, the
# unknown/missing key checks, serialization and the range checks of
# validate_scenario are all derived from these.
_GEO = (
    _f("zeta11"),
    _f("zeta12"),
    _f("zeta21"),
    _f("zeta22"),
    _f("zeta23"),
    _f("zeta32"),
    _f("zeta33"),
    _f("xi1_gtc_per_gtco2", "xi1", interval="(0, inf)"),
    _f("phi11", interval="(0, 1)"),
    _f("phi12", interval="[0, 1)"),
    _f("phi21", interval="[0, 1)"),
    _f("phi22", interval="(0, 1)"),
    _f("xi2_degc_per_wm2", "xi2", interval="(0, inf)"),
    _f("eta_wm2_per_doubling", "eta", interval="(0, inf)"),
    _f("m_at_1750_gtc", "m_at_1750", interval="(0, inf)"),
)

# A region row: RegionParams fields plus three per-region Scenario lists.
_REGION = (
    _f("name", "region_names", str),
    _f("developed", kind=bool),
    _f("gamma", interval="(0, 1)"),
    _f("delta_k_per_year", "delta_k", interval="[0, 1]"),
    _f("alpha", interval="(0, inf)"),
    _f("rho_per_year", "rho", interval="[0, inf)"),
    _f("a1"),
    _f("a2", interval="[0, inf)"),
    _f("a3"),
    _f("damage_loss_at_2c", "damage_loss_2c"),
    _f("theta2", interval="(1, inf)"),
    _f("pb_usd_per_tco2", "pb", interval="(0, inf)"),
    _f("delta_pb_per_step", "delta_pb", interval="[0, 1)"),
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
    _f("m_at_gtc", "m_at", interval="(0, inf)"),
    _f("m_up_gtc", "m_up", interval="(0, inf)"),
    _f("m_lo_gtc", "m_lo", interval="(0, inf)"),
    _f("capital_trillion_usd", "capital", list, interval="(0, inf)"),
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
    _f("weights", kind=list, interval="(0, inf)"),
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
    for key, attr, sub, _ in kind:
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
        for key, attr, sub, _ in kind
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
