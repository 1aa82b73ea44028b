"""Deterministic dynamics and payoffs of the RICE climate-economy game.

The world is split into n regions (12 in the shipped scenario) that share a
global carbon cycle and temperature response. Time advances in 5-year steps,
``year(t) = 2020 + 5 t``. The state stacks global temperatures (degC above
1750), carbon stocks (GtC) and per-region capital (trillions of 2005 USD):

    x = [T_AT, T_LO, M_AT, M_UP, M_LO, K_1, ..., K_n]

Each region controls a savings rate ``s_i(t)`` and an emission-control rate
``mu_i(t)``, both in [0, 1]. Everything here is pure and deterministic; the
same inputs reproduce trajectories bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "CONSUMPTION_FLOOR",
    "STEP_YEARS",
    "YEAR_ZERO",
    "RiceGameError",
    "ModelDomainError",
    "ModelBreakdownError",
    "GeoParams",
    "RegionParams",
    "ExogenousPaths",
    "RiceState",
    "ControlProfile",
    "Trajectory",
    "Scenario",
    "step",
    "simulate",
    "regional_welfare",
    "weighted_welfare",
    "social_cost_of_co2",
]

#: Calendar year of step 0 and length of one step in years.
YEAR_ZERO = 2020
STEP_YEARS = 5

#: Floor applied to per-capita consumption (trillion USD per million people)
#: before the utility evaluation, guarding degenerate profiles. The floor
#: breaks differentiability; marginal utility is taken as zero on floored
#: entries.
CONSUMPTION_FLOOR = 1e-6


class RiceGameError(Exception):
    """Base class for all errors raised by this package."""


class ModelDomainError(RiceGameError):
    """An input violates a documented precondition (bad shape, sign, range)."""


class ModelBreakdownError(RiceGameError):
    """The model left its economic domain (damage or abatement fraction <= 0).

    Attributes
    ----------
    step : int
        Absolute time step at which the breakdown occurred.
    region : int or None
        Offending region index, when attributable to a single region.
    """

    def __init__(self, message, step, region=None):
        super().__init__(message)
        self.step = step
        self.region = region


# ---------------------------------------------------------------------------
# Parameter and state containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeoParams:
    """Shared geophysical constants.

    The seven ``zeta`` entries form the column-stochastic 3x3 carbon
    transition matrix (atmosphere, upper ocean, lower ocean); the four
    ``phi`` entries form the 2x2 temperature response. ``xi1`` converts
    one step of global emissions (GtCO2/yr) into atmospheric GtC, ``xi2``
    converts forcing (W/m^2) into atmospheric warming per step, ``eta`` is
    the forcing per doubling of atmospheric carbon and ``m_at_1750`` the
    preindustrial stock (GtC).
    """

    zeta11: float
    zeta12: float
    zeta21: float
    zeta22: float
    zeta23: float
    zeta32: float
    zeta33: float
    xi1: float
    phi11: float
    phi12: float
    phi21: float
    phi22: float
    xi2: float
    eta: float
    m_at_1750: float

    def carbon_matrix(self) -> np.ndarray:
        """3x3 carbon transition matrix in (M_AT, M_UP, M_LO) order."""
        return np.array(
            [
                [self.zeta11, self.zeta12, 0.0],
                [self.zeta21, self.zeta22, self.zeta23],
                [0.0, self.zeta32, self.zeta33],
            ]
        )

    def temperature_matrix(self) -> np.ndarray:
        """2x2 temperature transition matrix in (T_AT, T_LO) order."""
        return np.array([[self.phi11, self.phi12], [self.phi21, self.phi22]])


@dataclass(frozen=True)
class RegionParams:
    """Per-region economic constants.

    ``gamma`` is the capital elasticity, ``delta_k`` the yearly capital
    depreciation, ``alpha`` the CRRA elasticity, ``rho`` the yearly pure
    rate of time preference, ``(a1, a2, a3)`` the damage coefficients,
    ``theta2`` the abatement-cost exponent, ``pb`` the 2020 backstop price
    (USD per tCO2) and ``delta_pb`` its per-step decline rate.
    """

    gamma: float
    delta_k: float
    alpha: float
    rho: float
    a1: float
    a2: float
    a3: float
    theta2: float
    pb: float
    delta_pb: float


@dataclass(frozen=True)
class ExogenousPaths:
    """Exogenous driver paths, time-major.

    ``tfp``, ``labor``, ``sigma`` and ``e_land`` have shape (length, n):
    total factor productivity, population (millions), industrial emission
    intensity (GtCO2 per trillion USD of gross output) and land-use
    emissions (GtCO2/yr). ``f_ex`` has shape (length,): exogenous forcing
    (W/m^2).
    """

    tfp: np.ndarray
    labor: np.ndarray
    sigma: np.ndarray
    e_land: np.ndarray
    f_ex: np.ndarray

    @property
    def length(self) -> int:
        return self.tfp.shape[0]

    @property
    def n_regions(self) -> int:
        return self.tfp.shape[1]


@dataclass(frozen=True)
class RiceState:
    """Full model state at one step."""

    t_at: float
    t_lo: float
    m_at: float
    m_up: float
    m_lo: float
    capital: np.ndarray

    def to_vector(self) -> np.ndarray:
        """Stack into [T_AT, T_LO, M_AT, M_UP, M_LO, K_1..K_n]."""
        return np.concatenate(
            ([self.t_at, self.t_lo, self.m_at, self.m_up, self.m_lo], self.capital)
        )

    @staticmethod
    def from_vector(x: np.ndarray) -> "RiceState":
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size < 6:
            raise ModelDomainError("state vector must be 1-d with length >= 6")
        return RiceState(
            t_at=float(x[0]),
            t_lo=float(x[1]),
            m_at=float(x[2]),
            m_up=float(x[3]),
            m_lo=float(x[4]),
            capital=np.array(x[5:], dtype=float),
        )


@dataclass(frozen=True)
class ControlProfile:
    """Joint open-loop control path.

    ``controls`` has shape (n, T+1, 2) with ``controls[i, t, 0]`` the
    savings rate and ``controls[i, t, 1]`` the emission-control rate of
    region i at step t. Flattening with ``ravel()`` yields the
    region-major, time-minor, [s, mu] decision-vector order.
    """

    controls: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.controls, dtype=float)
        if c.ndim != 3 or c.shape[2] != 2:
            raise ModelDomainError("controls must have shape (n, T+1, 2)")
        object.__setattr__(self, "controls", c)

    @property
    def n_regions(self) -> int:
        return self.controls.shape[0]

    @property
    def horizon(self) -> int:
        """T such that controls cover steps 0..T."""
        return self.controls.shape[1] - 1

    @property
    def saving(self) -> np.ndarray:
        """(n, T+1) view of savings rates."""
        return self.controls[:, :, 0]

    @property
    def mu(self) -> np.ndarray:
        """(n, T+1) view of emission-control rates."""
        return self.controls[:, :, 1]

    @staticmethod
    def constant(n: int, horizon: int, s: float, mu: float) -> "ControlProfile":
        c = np.empty((n, horizon + 1, 2))
        c[:, :, 0] = s
        c[:, :, 1] = mu
        return ControlProfile(c)


@dataclass(frozen=True)
class Trajectory:
    """Simulated rollout with per-step diagnostics.

    ``states`` has shape (T+2, 5+n): rows are state vectors for steps
    0..T+1. The flow arrays have shape (T+1, n): gross output Y, net
    output Q, consumption C (trillions USD/yr), abatement fraction Lambda,
    damage fraction Omega, per-region emissions (GtCO2/yr, including
    land use). ``total_emissions`` and ``forcing`` have shape (T+1,).
    ``consumption_floored`` marks entries where per-capita consumption hit
    the floor inside the payoff.
    """

    states: np.ndarray
    gross_output: np.ndarray
    net_output: np.ndarray
    consumption: np.ndarray
    abatement_fraction: np.ndarray
    damage_fraction: np.ndarray
    emissions: np.ndarray
    total_emissions: np.ndarray
    forcing: np.ndarray
    consumption_floored: np.ndarray

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 2

    @property
    def n_regions(self) -> int:
        return self.states.shape[1] - 5

    def state(self, t: int) -> RiceState:
        return RiceState.from_vector(self.states[t])


@dataclass
class Scenario:
    """Immutable-by-convention bundle of everything a rollout needs.

    Holds the shared geophysics, per-region parameters, exogenous paths,
    initial state, default horizon, welfare weights, control bounds and
    region metadata. Derived lookup tables are precomputed on
    construction; treat instances as frozen and use
    :func:`dataclasses.replace` to derive variants (the tables rebuild).
    """

    geo: GeoParams
    regions: list[RegionParams]
    exo: ExogenousPaths
    x0: RiceState
    horizon: int
    weights: np.ndarray
    region_names: list[str]
    developed: np.ndarray
    damage_loss_2c: np.ndarray
    s_bounds: tuple[float, float] = (0.05, 0.95)
    mu_bounds: tuple[float, float] = (0.0, 1.0)
    exo_spec: object = None

    # Derived tables, rebuilt by __post_init__.
    _zmat: np.ndarray = field(init=False, repr=False, compare=False)
    _phimat: np.ndarray = field(init=False, repr=False, compare=False)
    _gamma: np.ndarray = field(init=False, repr=False, compare=False)
    _alpha: np.ndarray = field(init=False, repr=False, compare=False)
    _a1: np.ndarray = field(init=False, repr=False, compare=False)
    _a2: np.ndarray = field(init=False, repr=False, compare=False)
    _a3: np.ndarray = field(init=False, repr=False, compare=False)
    _theta2: np.ndarray = field(init=False, repr=False, compare=False)
    _keep5: np.ndarray = field(init=False, repr=False, compare=False)
    _theta1: np.ndarray = field(init=False, repr=False, compare=False)
    _productivity: np.ndarray = field(init=False, repr=False, compare=False)
    _disc: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.regions)
        self.weights = np.asarray(self.weights, dtype=float)
        self.developed = np.asarray(self.developed, dtype=bool)
        self.damage_loss_2c = np.asarray(self.damage_loss_2c, dtype=float)
        self._zmat = self.geo.carbon_matrix()
        self._phimat = self.geo.temperature_matrix()
        self._gamma = np.array([r.gamma for r in self.regions])
        self._alpha = np.array([r.alpha for r in self.regions])
        self._a1 = np.array([r.a1 for r in self.regions])
        self._a2 = np.array([r.a2 for r in self.regions])
        self._a3 = np.array([r.a3 for r in self.regions])
        self._theta2 = np.array([r.theta2 for r in self.regions])
        self._keep5 = np.array(
            [(1.0 - r.delta_k) ** STEP_YEARS for r in self.regions]
        )
        length = self.exo.length
        pb = np.array([r.pb for r in self.regions])
        dpb = np.array([r.delta_pb for r in self.regions])
        if np.any(dpb >= 1.0):
            raise ModelDomainError("delta_pb must be < 1")
        tgrid = np.arange(length)[:, None]
        self._theta1 = (
            pb / (1000.0 * self._theta2) * (1.0 - dpb) ** (tgrid - 1) * self.exo.sigma
        )
        # Gross output per unit of K**gamma: tfp * labor**(1 - gamma).
        self._productivity = self.exo.tfp * self.exo.labor ** (1.0 - self._gamma)
        rho = np.array([r.rho for r in self.regions])
        self._disc = (1.0 + rho) ** (-STEP_YEARS * np.arange(length)[:, None])
        if self.exo.n_regions != n or self.x0.capital.size != n:
            raise ModelDomainError("region count mismatch across scenario parts")

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def year(self, t: int) -> int:
        return YEAR_ZERO + STEP_YEARS * t

    def control_lower(self) -> np.ndarray:
        return np.array([self.s_bounds[0], self.mu_bounds[0]])

    def control_upper(self) -> np.ndarray:
        return np.array([self.s_bounds[1], self.mu_bounds[1]])


# ---------------------------------------------------------------------------
# Vectorized rollout engine
# ---------------------------------------------------------------------------


def _time_major(controls: np.ndarray) -> np.ndarray:
    """The (steps, n) saving and abatement arrays of (n, steps, 2) controls, stacked."""
    return np.ascontiguousarray(controls.transpose(2, 1, 0))


def _forward(
    scenario: Scenario,
    x0_vec: np.ndarray,
    s_tn: np.ndarray,
    mu_tn: np.ndarray,
    t0: int = 0,
    check: bool = True,
):
    """Roll the dynamics forward. Controls are time-major (T+1, n).

    ``t0`` is the absolute step of the first control, used to index the
    exogenous paths and discount factors. Returns the :class:`Trajectory`
    and the per-capita consumption raised to the floor, (T+1, n), that the
    payoff and the adjoint read.
    """
    n = scenario.n_regions
    steps = s_tn.shape[0]
    if s_tn.shape != (steps, n) or mu_tn.shape != (steps, n):
        raise ModelDomainError("controls must have shape (T+1, n)")
    if t0 < 0 or t0 + steps > scenario.exo.length:
        raise ModelDomainError(
            "exogenous paths do not cover steps"
            f" [{t0}, {t0 + steps - 1}] (length {scenario.exo.length})"
        )
    if check:
        # Asked as "inside" so that a NaN, which fails every comparison, is out.
        inside = (s_tn >= 0.0) & (s_tn <= 1.0) & (mu_tn >= 0.0) & (mu_tn <= 1.0)
        if not inside.all():
            raise ModelDomainError("controls must lie in [0, 1]")
        if not (np.isfinite(x0_vec).all() and (x0_vec[2:] > 0.0).all()):
            raise ModelDomainError(
                "start state must be finite, with positive carbon stocks and capital"
            )

    gamma, keep5 = scenario._gamma, scenario._keep5
    a1, a2, a3 = scenario._a1, scenario._a2, scenario._a3
    geo = scenario.geo
    eta, m1750, xi1, xi2 = geo.eta, geo.m_at_1750, geo.xi1, geo.xi2
    log2 = math.log(2.0)
    (z00, z01, _), (z10, z11, z12), (_, z21, z22) = scenario._zmat.tolist()
    (p00, p01), (p10, p11) = scenario._phimat.tolist()

    # Everything the state does not touch, as whole-window arrays. With
    # y = A * K**gamma, the loop keeps only the state-dependent work: K**gamma,
    # Omega(T_AT), one dot for total emissions and the capital update. The
    # five climate states are Python floats.
    win = slice(t0, t0 + steps)
    exo = scenario.exo
    A = scenario._productivity[win]
    e_land = exo.e_land[win]
    land = e_land.sum(axis=1).tolist()
    f_ex = exo.f_ex[win].tolist()
    LAM = 1.0 - scenario._theta1[win] * mu_tn**scenario._theta2
    EA = exo.sigma[win] * (1.0 - mu_tn) * A
    D = STEP_YEARS * s_tn * LAM * A

    states = np.empty((steps + 1, 5 + n))
    states[0] = x0_vec
    KG = np.empty((steps, n))
    OM = np.empty((steps, n))
    rows = []
    t_at, t_lo, m_at, m_up, m_lo = x0_vec[:5].tolist()
    one, tmp = np.ones(n), np.empty(n)

    # Past a breakdown the rollout runs on with meaningless values (K**gamma
    # of a negative capital is NaN) until the domain test after the loop.
    with np.errstate(all="ignore"):
        for kg, om, ea, d, k, k_next, f_rel, land_rel in zip(
            KG, OM, EA, D, states[:-1, 5:], states[1:, 5:], f_ex, land
        ):
            np.power(k, gamma, out=kg)
            np.multiply(a1, t_at, out=om)
            np.subtract(one, om, out=om)
            np.power(t_at, a3, out=tmp)
            tmp *= a2
            om -= tmp
            etot = float(ea @ kg) + land_rel
            forcing = eta * math.log(m_at / m1750) / log2 + f_rel
            np.multiply(om, kg, out=tmp)
            tmp *= d
            np.multiply(keep5, k, out=k_next)
            k_next += tmp
            m_at, m_up, m_lo = (
                z00 * m_at + z01 * m_up + xi1 * etot,
                z10 * m_at + z11 * m_up + z12 * m_lo,
                z21 * m_up + z22 * m_lo,
            )
            t_at, t_lo = p00 * t_at + p01 * t_lo + xi2 * forcing, p10 * t_at + p11 * t_lo
            rows.append((etot, forcing, t_at, t_lo, m_at, m_up, m_lo))

    bad = (OM <= 0.0) | (LAM <= 0.0)
    if bad.any():
        rel = int(np.argmax(bad.any(axis=1)))
        i = int(np.argmax(bad[rel]))
        ta = t0 + rel
        raise ModelBreakdownError(
            f"damage or abatement fraction <= 0 at step {ta}, region {i}"
            f" (omega = {OM[rel, i]:.6g}, lambda = {LAM[rel, i]:.6g})",
            step=ta,
            region=i,
        )
    rows = np.array(rows).reshape(steps, 7)
    states[1:, :5] = rows[:, 2:]
    Y = A * KG
    Q = OM * LAM * Y
    EREG = EA * KG + e_land
    C = (1.0 - s_tn) * Q
    cpc, floored = _per_capita(scenario, C, t0)
    traj = Trajectory(states, Y, Q, C, LAM, OM, EREG, rows[:, 0], rows[:, 1], floored)
    return traj, cpc


def _per_capita(scenario: Scenario, consumption: np.ndarray, t0: int) -> tuple:
    """Per-capita consumption raised to the floor, and where the floor bit."""
    cpc = consumption / scenario.exo.labor[t0 : t0 + consumption.shape[0]]
    return np.maximum(cpc, CONSUMPTION_FLOOR), cpc < CONSUMPTION_FLOOR


def _utilities(scenario: Scenario, cpc: np.ndarray, t0: int) -> np.ndarray:
    """Per-step discounted utilities of floored per-capita consumption, (steps, n)."""
    steps = cpc.shape[0]
    labor = scenario.exo.labor[t0 : t0 + steps]
    alpha = scenario._alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        crra = labor * (cpc ** (1.0 - alpha) - 1.0) / (1.0 - alpha)
    logu = labor * np.log(cpc)
    base = np.where(alpha == 1.0, logu, crra)
    return base * scenario._disc[t0 : t0 + steps]


def _adjoint_arrays(
    scenario: Scenario,
    x0_vec: np.ndarray,
    s_tn: np.ndarray,
    mu_tn: np.ndarray,
    weights: np.ndarray,
    t0: int = 0,
    check: bool = False,
    regions=slice(None),
):
    """Weighted welfare and its exact discrete adjoint, time-major controls.

    ``weights`` is (n,) or a batch (m, n) of weight rows; every costate
    carries the batch axis of ``weights`` between the time and region axes.
    Returns ``(f, gs, gmu, lam_mat, dudc)``: the welfare (a float, or (m,)),
    its gradients with respect to the s and mu of the regions that the
    index ``regions`` picks (all by default, none for an empty list), shaped
    (steps, [m,] picked), the path ``lam_mat`` (steps, [m]) whose entry t is
    the costate of M_AT(t+1), and the marginal utilities du_i/dC_i(t),
    (steps, n). The backward sweep mirrors the rollout exactly: one adjoint
    per state coordinate, zero marginal utility where the consumption floor
    bit. ``check`` validates controls and the initial state as the rollout
    does.
    """
    traj, cpc = _forward(scenario, x0_vec, s_tn, mu_tn, t0=t0, check=check)
    steps, n = s_tn.shape
    f = _utilities(scenario, cpc, t0).sum(axis=0) @ weights.T
    batched = weights.ndim == 2
    if not batched:
        f = float(f)
    # d(utility)/d(consumption), zero where the floor bit.
    dudc = np.where(
        traj.consumption_floored,
        0.0,
        cpc ** (-scenario._alpha) * scenario._disc[t0 : t0 + steps],
    )

    geo = scenario.geo
    a1, a2, a3 = scenario._a1, scenario._a2, scenario._a3
    theta2, gamma, xi1 = scenario._theta2, scenario._gamma, geo.xi1
    phi11, phi12, phi21, phi22 = geo.phi11, geo.phi12, geo.phi21, geo.phi22
    (z00, z01, _), (z10, z11, z12), (_, z21, z22) = scenario._zmat.tolist()

    states, Y, Q = traj.states, traj.gross_output, traj.net_output
    OM, LAM = traj.damage_fraction, traj.abatement_fraction
    K = states[:steps, 5:]
    sig = scenario.exo.sigma[t0 : t0 + steps]

    # Everything that does not depend on the costates, as whole-window
    # arrays; ``batch`` inserts the weight-batch axis after time. The
    # consumption part of the T_AT costate term is one row sum; the loop
    # keeps the capital part, one dot per step. For an (n,) weight vector
    # the climate costates are Python floats.
    batch = (slice(None),) + (None,) * (weights.ndim - 1)
    w_mu = weights * dudc[batch]
    w_mu_kept = w_mu * (1.0 - s_tn[batch])
    om_prime = -(a1 + a2 * a3 * states[:steps, 0:1] ** (a3 - 1.0))
    dq_dk = gamma * Q / K
    dq_dtat = LAM * Y * om_prime
    saved_dq_dtat = 5.0 * s_tn * dq_dtat
    kept_dq_dtat = (w_mu_kept * dq_dtat[batch]).sum(axis=-1)
    k_sens = scenario._keep5 + 5.0 * s_tn * dq_dk
    kept_dq_dk = w_mu_kept * dq_dk[batch]
    emit_dk = xi1 * sig * (1.0 - mu_tn) * gamma * Y / K
    forcing_sens = (geo.xi2 * geo.eta / (states[:steps, 2] * math.log(2.0))).tolist()

    # Entry t of lam_k_path and lam_mat is the costate of K(t+1) and of
    # M_AT(t+1). The sweep stops at t = 1: no output reads the costates of
    # the start state.
    shape = weights.shape[:-1]
    lam_tat = lam_tlo = lam_m0 = lam_m1 = lam_m2 = np.zeros(shape) if batched else 0.0
    lam_k_path = np.empty((steps,) + shape + (n,))
    lam_k_path[-1] = 0.0
    lam_mat = np.empty((steps,) + shape)
    tmp = np.empty(shape + (n,))
    cast = np.asarray if batched else float
    for t in range(steps - 1, 0, -1):
        lam_k = lam_k_path[t]
        lam_mat[t] = lam_m0
        output_term = cast(lam_k @ saved_dq_dtat[t] + kept_dq_dtat[t])
        new_tat = output_term + phi11 * lam_tat + phi21 * lam_tlo
        new_tlo = phi12 * lam_tat + phi22 * lam_tlo
        new_m0 = z00 * lam_m0 + z10 * lam_m1 + forcing_sens[t] * lam_tat
        new_m1 = z01 * lam_m0 + z11 * lam_m1 + z21 * lam_m2
        new_m2 = z12 * lam_m1 + z22 * lam_m2
        lam_k_prev = lam_k_path[t - 1]
        np.multiply(lam_k, k_sens[t], out=lam_k_prev)
        lam_k_prev += kept_dq_dk[t]
        np.multiply(emit_dk[t], lam_m0[:, None] if batched else lam_m0, out=tmp)
        lam_k_prev += tmp
        lam_tat, lam_tlo = new_tat, new_tlo
        lam_m0, lam_m1, lam_m2 = new_m0, new_m1, new_m2
    lam_mat[0] = lam_m0

    lam_prime = -(scenario._theta1[t0 : t0 + steps] * theta2 * mu_tn ** (theta2 - 1.0))
    Q, OM, Y, sig, lam_prime, s_r = (
        a[:, regions][batch] for a in (Q, OM, Y, sig, lam_prime, s_tn)
    )
    lam_k_path = lam_k_path[..., regions]
    gs = (-w_mu[..., regions] + 5.0 * lam_k_path) * Q
    gmu = (w_mu_kept[..., regions] + 5.0 * s_r * lam_k_path) * OM * Y * lam_prime - (
        lam_mat[..., None] * xi1 * sig * Y
    )
    return f, gs, gmu, lam_mat, dudc


def step(t: int, x: RiceState, u, scenario: Scenario) -> tuple[RiceState, dict]:
    """Advance one step from state x at absolute step t under controls u.

    ``u`` is an (n, 2) array of [s, mu] rows. Returns the next state and a
    diagnostics dict: row 0 of the one-step :class:`Trajectory`, keyed by
    field name, with the per-region flows as (n,) arrays and the total
    emissions and forcing as floats.
    """
    uarr = np.asarray(u, dtype=float)
    if uarr.shape != (scenario.n_regions, 2):
        raise ModelDomainError("controls must have shape (n, 2)")
    traj, _ = _forward(scenario, x.to_vector(), *_time_major(uarr[:, None]), t0=t)
    diag = {
        f.name: getattr(traj, f.name)[0]
        for f in fields(Trajectory)
        if f.name not in ("states", "consumption_floored")
    }
    diag["total_emissions"] = float(traj.total_emissions[0])
    diag["forcing"] = float(traj.forcing[0])
    return RiceState.from_vector(traj.states[1]), diag


def simulate(x0: RiceState, profile: ControlProfile, scenario: Scenario) -> Trajectory:
    """Roll out the full horizon of ``profile`` from ``x0``, starting at step 0.

    Raises :class:`ModelBreakdownError` (with the failing step and region
    attached) if the model breaks down along the way.
    """
    if profile.n_regions != scenario.n_regions:
        raise ModelDomainError("profile region count does not match scenario")
    return _forward(scenario, x0.to_vector(), *_time_major(profile.controls))[0]


def regional_welfare(traj: Trajectory, scenario: Scenario) -> np.ndarray:
    """Discounted welfare of every region along ``traj``, shape (n,).

    The trajectory's first control is at step 0, as :func:`simulate`
    rolls it out. The consumption stored in the trajectory already carries
    the (1 - s_i) factor and the mu_i abatement argument.
    """
    cpc, _ = _per_capita(scenario, traj.consumption, 0)
    return _utilities(scenario, cpc, 0).sum(axis=0)


def weighted_welfare(
    traj: Trajectory,
    profile: ControlProfile,
    weights: np.ndarray,
    scenario: Scenario,
) -> float:
    """Weighted sum of regional welfares along ``traj``, the rollout of ``profile``."""
    if traj.horizon != profile.horizon or traj.n_regions != profile.n_regions:
        raise ModelDomainError("trajectory is not consistent with profile")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (scenario.n_regions,):
        raise ModelDomainError("weights must have shape (n,)")
    return float(regional_welfare(traj, scenario) @ weights)


def social_cost_of_co2(
    scenario: Scenario,
    x0: RiceState,
    profile: ControlProfile,
    steps=None,
) -> np.ndarray:
    """Social cost of CO2 (USD per tCO2), one row per step, one column per region.

    Entry [j, i] is region i's shadow-price ratio at step ``steps[j]`` (all
    steps 0..T when ``steps`` is None): the welfare value of one more
    GtCO2/yr of global emissions, ``xi1`` times the costate of M_AT at the
    next step, over the marginal utility of region i's own consumption,
    scaled by -1000 to convert trillions of USD per GtCO2 into USD per
    tCO2. Every entry comes from one rollout and one adjoint sweep with one
    unit-weight row per region. Raises :class:`ModelDomainError` for a step
    outside 0..T and where the consumption floor zeroes a requested
    marginal utility.
    """
    idx = np.arange(profile.horizon + 1) if steps is None else np.asarray(steps)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ModelDomainError("steps must be a 1-d sequence of integers")
    idx = idx.astype(int)
    if np.any((idx < 0) | (idx > profile.horizon)):
        raise ModelDomainError("step index out of range")
    _, _, _, lam_mat, dudc = _adjoint_arrays(
        scenario,
        x0.to_vector(),
        *_time_major(profile.controls),
        np.eye(scenario.n_regions),
        check=True,
        regions=[],
    )
    dudc = dudc[idx]
    if np.any(dudc == 0.0):
        raise ModelDomainError(
            "consumption floor zeroes a requested marginal utility; SCC undefined"
        )
    return -1000.0 * scenario.geo.xi1 * lam_mat[idx] / dudc
