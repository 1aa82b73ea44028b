"""Independent straight-line reimplementation of the dynamics for testing.

Everything here is written directly from the model equations using plain
Python scalars and explicit loops, deliberately sharing no code with the
package. A math backend is injected so the same oracle runs in float64
(``math``) or high precision (``mpmath``), which lets tests escalate
finite-difference checks past float64 roundoff.
"""

import math


class FloatBackend:
    """Plain float arithmetic."""

    @staticmethod
    def num(x):
        return float(x)

    @staticmethod
    def log(x):
        return math.log(x)

    @staticmethod
    def pow(x, y):
        return x**y


class MpBackend:
    """mpmath arbitrary-precision arithmetic at the ambient mp.dps."""

    def __init__(self, mp):
        self.mp = mp

    def num(self, x):
        return self.mp.mpf(x)

    def log(self, x):
        return self.mp.log(x)

    def pow(self, x, y):
        return self.mp.power(x, y)


def scenario_constants(scenario):
    """Pull plain-Python parameter lists out of a Scenario object.

    Only data crosses this boundary; all arithmetic below is local.
    """
    geo = scenario.geo
    n = scenario.n_regions
    length = scenario.exo.length
    return {
        "n": n,
        "zeta": [
            [geo.zeta11, geo.zeta12, 0.0],
            [geo.zeta21, geo.zeta22, geo.zeta23],
            [0.0, geo.zeta32, geo.zeta33],
        ],
        "phi": [[geo.phi11, geo.phi12], [geo.phi21, geo.phi22]],
        "xi1": geo.xi1,
        "xi2": geo.xi2,
        "eta": geo.eta,
        "m1750": geo.m_at_1750,
        "gamma": [r.gamma for r in scenario.regions],
        "delta_k": [r.delta_k for r in scenario.regions],
        "alpha": [r.alpha for r in scenario.regions],
        "rho": [r.rho for r in scenario.regions],
        "a1": [r.a1 for r in scenario.regions],
        "a2": [r.a2 for r in scenario.regions],
        "a3": [r.a3 for r in scenario.regions],
        "theta2": [r.theta2 for r in scenario.regions],
        "pb": [r.pb for r in scenario.regions],
        "delta_pb": [r.delta_pb for r in scenario.regions],
        "tfp": [[float(scenario.exo.tfp[t, i]) for i in range(n)] for t in range(length)],
        "labor": [
            [float(scenario.exo.labor[t, i]) for i in range(n)] for t in range(length)
        ],
        "sigma": [
            [float(scenario.exo.sigma[t, i]) for i in range(n)] for t in range(length)
        ],
        "e_land": [
            [float(scenario.exo.e_land[t, i]) for i in range(n)] for t in range(length)
        ],
        "f_ex": [float(scenario.exo.f_ex[t]) for t in range(length)],
        "x0": [float(v) for v in scenario.x0.to_vector()],
        "floor": 1e-6,
    }


def oracle_weighted_welfare(
    consts, s, mu, weights, backend=None, t0=0, e_extra=None, c_extra=None
):
    """Weighted welfare of controls s[t][i], mu[t][i] from the stored x0.

    Returns the scalar objective. ``backend`` defaults to float64.
    ``e_extra[t]`` (GtCO2/yr) is added to total emissions at step t, and
    ``c_extra[t][i]`` to region i's consumption at step t inside the payoff
    only; central differences over them give the social cost of CO2.
    """
    be = backend or FloatBackend()
    num = be.num
    n = consts["n"]
    steps = len(s)

    zeta = [[num(v) for v in row] for row in consts["zeta"]]
    phi = [[num(v) for v in row] for row in consts["phi"]]
    xi1, xi2 = num(consts["xi1"]), num(consts["xi2"])
    eta, m1750 = num(consts["eta"]), num(consts["m1750"])
    ln2 = be.log(num(2))
    floor = num(consts["floor"])
    one = num(1)
    five = num(5)

    x = [num(v) for v in consts["x0"]]
    t_at, t_lo = x[0], x[1]
    m = x[2:5]
    k = x[5:]

    total = num(0)
    for rel in range(steps):
        ta = t0 + rel
        e_tot = num(0)
        q_list = []
        for i in range(n):
            a = num(consts["tfp"][ta][i])
            l = num(consts["labor"][ta][i])
            sig = num(consts["sigma"][ta][i])
            gam = num(consts["gamma"][i])
            y = a * be.pow(k[i], gam) * be.pow(l, one - gam)
            theta2 = num(consts["theta2"][i])
            theta1 = (
                num(consts["pb"][i])
                / (num(1000) * theta2)
                * be.pow(one - num(consts["delta_pb"][i]), num(ta - 1))
                * sig
            )
            lam = one - theta1 * be.pow(num(mu[rel][i]), theta2)
            om = (
                one
                - num(consts["a1"][i]) * t_at
                - num(consts["a2"][i]) * be.pow(t_at, num(consts["a3"][i]))
            )
            if lam <= 0 or om <= 0:
                raise ArithmeticError(f"model breakdown at step {ta} region {i}")
            q = om * lam * y
            q_list.append(q)
            c = (one - num(s[rel][i])) * q
            if c_extra is not None:
                c = c + num(c_extra[rel][i])
            cpc = c / l
            if cpc < floor:
                cpc = floor
            alpha = num(consts["alpha"][i])
            if alpha == 1:
                base = l * be.log(cpc)
            else:
                base = l * (be.pow(cpc, one - alpha) - one) / (one - alpha)
            disc = be.pow(one + num(consts["rho"][i]), num(-5 * ta))
            total = total + num(weights[i]) * base * disc
            e_tot = e_tot + sig * (one - num(mu[rel][i])) * y + num(
                consts["e_land"][ta][i]
            )

        if e_extra is not None:
            e_tot = e_tot + num(e_extra[rel])
        forcing = eta * be.log(m[0] / m1750) / ln2 + num(consts["f_ex"][ta])
        m_new = [
            zeta[0][0] * m[0] + zeta[0][1] * m[1] + zeta[0][2] * m[2] + xi1 * e_tot,
            zeta[1][0] * m[0] + zeta[1][1] * m[1] + zeta[1][2] * m[2],
            zeta[2][0] * m[0] + zeta[2][1] * m[1] + zeta[2][2] * m[2],
        ]
        t_at_new = phi[0][0] * t_at + phi[0][1] * t_lo + xi2 * forcing
        t_lo_new = phi[1][0] * t_at + phi[1][1] * t_lo
        k = [
            be.pow(one - num(consts["delta_k"][i]), num(5)) * k[i]
            + five * num(s[rel][i]) * q_list[i]
            for i in range(n)
        ]
        m = m_new
        t_at, t_lo = t_at_new, t_lo_new
    return total


def oracle_trajectory(consts, s, mu, t0=0):
    """Full float64 rollout; returns states and per-step diagnostics.

    States come back as a list of [t_at, t_lo, m_at, m_up, m_lo, k...]
    rows (steps + 1 of them); diagnostics as dict of per-step lists.
    """
    be = FloatBackend()
    n = consts["n"]
    steps = len(s)
    x = list(consts["x0"])
    t_at, t_lo = x[0], x[1]
    m = x[2:5]
    k = x[5:]
    states = [[t_at, t_lo] + list(m) + list(k)]
    diag = {"Y": [], "Q": [], "C": [], "LAM": [], "OM": [], "EREG": [], "ETOT": [], "F": []}
    for rel in range(steps):
        ta = t0 + rel
        y_row, q_row, c_row, lam_row, om_row, e_row = [], [], [], [], [], []
        e_tot = 0.0
        for i in range(n):
            a = consts["tfp"][ta][i]
            l = consts["labor"][ta][i]
            sig = consts["sigma"][ta][i]
            y = a * k[i] ** consts["gamma"][i] * l ** (1.0 - consts["gamma"][i])
            theta2 = consts["theta2"][i]
            theta1 = (
                consts["pb"][i]
                / (1000.0 * theta2)
                * (1.0 - consts["delta_pb"][i]) ** (ta - 1)
                * sig
            )
            lam = 1.0 - theta1 * mu[rel][i] ** theta2
            om = 1.0 - consts["a1"][i] * t_at - consts["a2"][i] * t_at ** consts["a3"][i]
            if lam <= 0.0 or om <= 0.0:
                raise ArithmeticError(f"model breakdown at step {ta} region {i}")
            q = om * lam * y
            c = (1.0 - s[rel][i]) * q
            e = sig * (1.0 - mu[rel][i]) * y + consts["e_land"][ta][i]
            e_tot += e
            y_row.append(y)
            q_row.append(q)
            c_row.append(c)
            lam_row.append(lam)
            om_row.append(om)
            e_row.append(e)
        forcing = (
            consts["eta"] * be.log(m[0] / consts["m1750"]) / math.log(2.0)
            + consts["f_ex"][ta]
        )
        zeta = consts["zeta"]
        m = [
            zeta[0][0] * m[0] + zeta[0][1] * m[1] + zeta[0][2] * m[2]
            + consts["xi1"] * e_tot,
            zeta[1][0] * m[0] + zeta[1][1] * m[1] + zeta[1][2] * m[2],
            zeta[2][0] * m[0] + zeta[2][1] * m[1] + zeta[2][2] * m[2],
        ]
        phi = consts["phi"]
        t_at, t_lo = (
            phi[0][0] * t_at + phi[0][1] * t_lo + consts["xi2"] * forcing,
            phi[1][0] * t_at + phi[1][1] * t_lo,
        )
        k = [
            (1.0 - consts["delta_k"][i]) ** 5 * k[i] + 5.0 * s[rel][i] * q_row[i]
            for i in range(n)
        ]
        states.append([t_at, t_lo] + list(m) + list(k))
        diag["Y"].append(y_row)
        diag["Q"].append(q_row)
        diag["C"].append(c_row)
        diag["LAM"].append(lam_row)
        diag["OM"].append(om_row)
        diag["EREG"].append(e_row)
        diag["ETOT"].append(e_tot)
        diag["F"].append(forcing)
    return states, diag
