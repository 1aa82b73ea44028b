"""The four benchmark workloads: seeded inputs, one job, and its output checks.

Every workload has three parts:

* ``inputs(scenario, seed)`` builds a job's inputs from the seed alone. The
  same seed always gives byte-identical inputs.
* ``job(scenario, inp, workdir)`` is the timed call into the package.
* ``check(scenario, inp, out, workdir)`` returns a list of problems with the
  job's output; an empty list means the output is correct.

``summary(out, workdir)`` condenses an output to the numbers kept in
``data/reference.json``; ``compare`` checks a summary against a reference
recorded for the same seed, with the tolerances stated below.

All calls use one process (``threads=1``). The jobs look their functions up
on the ``rice_game`` package at call time, so that the tracer in
``spans.py`` sees them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import rice_game as rg
import rice_game.cli  # noqa: F401  (binds rg.cli, which the package does not import)
from rice_game.cooperative import default_initial_profile

DATA = Path(__file__).resolve().parent / "data"

#: Cooperative optimum of the default scenario: ``solve_swm`` with its
#: default options (4-way multistart), stored so that ``nash`` does not time it.
SWM_OPTIMUM = DATA / "swm_optimum.npy"
REFERENCE = DATA / "reference.json"

#: Input seeds with a recorded reference. A run with seed ``n`` repeats the
#: job of input seed ``n % RECORDED_SEEDS``, so every job of every run is
#: compared with ``data/reference.json``.
RECORDED_SEEDS = 11

# Input generation.
#: Solves per ``swm`` job, each from its own jittered cold start. The number
#: of L-BFGS-B evaluations of one solve varies by about 12% (IQR/median)
#: from start to start; a job of four solves averages that down.
SWM_STARTS = 4
SWM_JITTER = 0.02  # uniform jitter of the cold start, as a share of the box
NASH_JITTER = 0.02  # uniform jitter of the cooperative optimum, share of box
NASH_EPISODES = 21
RHFA_T_SIM = 30
RHFA_T_RH = 10
SCC_STEPS = 60

# Output checks (criteria 04 and 06 of the acceptance suite).
SWM_T_AT_RANGE = (2.5, 3.5)
#: Bound on the inf-norm of the projected gradient of the objective scaled by
#: 1/|start welfare|, the quantity L-BFGS-B tests against ``grad_tol`` = 1e-6.
#: Solves that stop on objective change end near 1e-5.
SWM_PG_TOL = 1e-4
NE_EPSILON = 1e-3
#: A best response starts from the candidate's own controls, so its welfare
#: may fall below the candidate's only by rounding.
BR_SLACK = 1e-12
#: Re-simulating a returned profile must reproduce its trajectory.
RESIM_RTOL = 1e-12
BOX_SLACK = 1e-12

# Agreement with reference outputs recorded at the seed commit.
#: The SWM optimum is flat: starts 0.2% of the box apart end up to 5e-6 apart
#: in welfare and 0.01 degC apart in terminal T_AT, so any change in the order
#: of floating-point operations can move a solve that far.
REF_SWM_WELFARE_RTOL = 1e-4
REF_SWM_T_AT_ATOL = 0.05
REF_NASH_WELFARE_RTOL = 1e-5
REF_NASH_T_AT_ATOL = 0.01
REF_RHFA_CONTROL_ATOL = 1e-3
REF_RHFA_T_AT_ATOL = 1e-3
#: The gate ROADMAP item 3 sets for an adjoint SCC against finite differences.
REF_SCC_RTOL = 1e-6
REF_SIM_RTOL = 1e-9


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _box(scenario):
    return scenario.control_lower(), scenario.control_upper()


def _jittered(base: np.ndarray, scenario, rng, share: float) -> np.ndarray:
    lo, hi = _box(scenario)
    return np.clip(base + share * (hi - lo) * rng.uniform(-1.0, 1.0, base.shape), lo, hi)


def _resim_problems(scenario, profile, traj) -> list:
    again = rg.simulate(scenario.x0, profile, scenario)
    if not np.allclose(again.states, traj.states, rtol=RESIM_RTOL, atol=0.0):
        return ["re-simulating the returned profile does not reproduce its trajectory"]
    return []


def _rel_gap(value, ref) -> float:
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(value - ref) / np.maximum(np.abs(ref), 1e-300)))


def _abs_gap(value, ref) -> float:
    return float(np.max(np.abs(np.asarray(value, dtype=float) - np.asarray(ref, dtype=float))))


class Swm:
    """Full-horizon social-welfare solves, one after another, each from its
    own jittered cold start."""

    stream = 0

    def inputs(self, scenario, seed):
        cold = default_initial_profile(scenario, scenario.horizon + 1)
        cold = np.broadcast_to(cold, (SWM_STARTS, *cold.shape))
        return {"init": _jittered(cold, scenario, _rng(seed, self.stream), SWM_JITTER)}

    def job(self, scenario, inp, workdir):
        return [rg.solve_swm(scenario, rg.SolveOptions(multistart=1), init=init)
                for init in inp["init"]]

    def check(self, scenario, inp, out, workdir):
        return [f"solve {k}: {problem}" for k, (init, result) in enumerate(zip(inp["init"], out))
                for problem in self._check_one(scenario, init, result)]

    def _check_one(self, scenario, init, out):
        problems = []
        start = rg.ControlProfile(init)
        start_traj = rg.simulate(scenario.x0, start, scenario)
        w0 = rg.weighted_welfare(start_traj, start, scenario.weights, scenario)
        if not out.welfare >= w0:
            problems.append(f"welfare {out.welfare!r} below start welfare {w0!r}")
        grad = rg.gradient_adjoint(out.profile, scenario, scenario.weights)
        lo, hi = _box(scenario)
        steps = scenario.horizon + 1
        lower = np.tile(lo, scenario.n_regions * steps)
        upper = np.tile(hi, scenario.n_regions * steps)
        x = out.profile.controls.ravel()
        pg = float(np.max(np.abs(np.clip(x + grad / abs(w0), lower, upper) - x)))
        if not pg <= SWM_PG_TOL:
            problems.append(f"scaled projected gradient {pg:.3e} above {SWM_PG_TOL:g}")
        problems += _resim_problems(scenario, out.profile, out.trajectory)
        t_at = float(out.trajectory.states[-2, 0])
        if not SWM_T_AT_RANGE[0] <= t_at <= SWM_T_AT_RANGE[1]:
            problems.append(f"terminal T_AT {t_at:.3f} outside {SWM_T_AT_RANGE}")
        return problems

    def summary(self, out, workdir):
        return {
            "welfare": [float(result.welfare) for result in out],
            "terminal_t_at": [float(result.trajectory.states[-2, 0]) for result in out],
        }

    def compare(self, got, ref):
        problems = []
        gap = _rel_gap(got["welfare"], ref["welfare"])
        if not gap <= REF_SWM_WELFARE_RTOL:
            problems.append(f"welfare differs from reference by {gap:.2e} relative")
        gap = _abs_gap(got["terminal_t_at"], ref["terminal_t_at"])
        if not gap <= REF_SWM_T_AT_ATOL:
            problems.append(f"terminal T_AT differs from reference by {gap:.2e} degC")
        return problems


class Nash:
    """21 Jacobi best-response rounds from the jittered cooperative optimum,
    then the epsilon-Nash certificate of the result."""

    stream = 1

    def __init__(self):
        self._optimum = None

    def start(self, scenario, seed):
        if self._optimum is None:
            self._optimum = np.load(SWM_OPTIMUM)
        return _jittered(self._optimum, scenario, _rng(seed, self.stream), NASH_JITTER)

    def inputs(self, scenario, seed):
        return {"start": self.start(scenario, seed)}

    def job(self, scenario, inp, workdir):
        result = rg.rba_dg(
            scenario,
            episodes=NASH_EPISODES,
            initial_profile=rg.ControlProfile(inp["start"]),
            threads=1,
            update="jacobi",
        )
        cert = rg.verify_epsilon_ne(scenario, result.profile, threads=1)
        return result, cert

    def check(self, scenario, inp, out, workdir):
        result, cert = out
        problems = []
        if not cert.epsilon < NE_EPSILON:
            problems.append(f"certificate epsilon {cert.epsilon:.3e} not below {NE_EPSILON:g}")
        floor = cert.welfare - BR_SLACK * np.abs(cert.welfare)
        if not np.all(cert.best_response_welfare >= floor):
            problems.append("a best response has lower welfare than the candidate")
        return problems

    def summary(self, out, workdir):
        result, cert = out
        return {
            "welfare": [float(w) for w in cert.welfare],
            "terminal_t_at": float(result.trajectory.states[-2, 0]),
        }

    def compare(self, got, ref):
        problems = []
        gap = _rel_gap(got["welfare"], ref["welfare"])
        if not gap <= REF_NASH_WELFARE_RTOL:
            problems.append(f"regional welfare differs from reference by {gap:.2e} relative")
        gap = _abs_gap(got["terminal_t_at"], ref["terminal_t_at"])
        if not gap <= REF_NASH_T_AT_ATOL:
            problems.append(f"terminal T_AT differs from reference by {gap:.2e} degC")
        return problems


class Rhfa:
    """Receding-horizon feedback play, 30 steps of 10-step windows, started
    from the first controls of the ``nash`` start profile."""

    def __init__(self, nash: Nash):
        self._nash = nash

    def inputs(self, scenario, seed):
        return {"initial": self._nash.start(scenario, seed)[:, 0, :].copy()}

    def job(self, scenario, inp, workdir):
        return rg.rhfa_dg(
            scenario, RHFA_T_SIM, RHFA_T_RH, initial_controls=inp["initial"], threads=1
        )

    def check(self, scenario, inp, out, workdir):
        problems = []
        lo, hi = _box(scenario)
        played = out.profile.controls
        if np.any(played < lo - BOX_SLACK) or np.any(played > hi + BOX_SLACK):
            problems.append("played controls leave the control box")
        problems += _resim_problems(scenario, out.profile, out.trajectory)
        return problems

    def summary(self, out, workdir):
        return {
            "controls": out.profile.controls.tolist(),
            "terminal_t_at": float(out.trajectory.states[-2, 0]),
        }

    def compare(self, got, ref):
        problems = []
        gap = _abs_gap(got["controls"], ref["controls"])
        if not gap <= REF_RHFA_CONTROL_ATOL:
            problems.append(f"played controls differ from reference by {gap:.2e}")
        gap = _abs_gap(got["terminal_t_at"], ref["terminal_t_at"])
        if not gap <= REF_RHFA_T_AT_ATOL:
            problems.append(f"terminal T_AT differs from reference by {gap:.2e} degC")
        return problems


class Scc:
    """The ``scc`` CLI at 60 seeded steps under the baseline policy, then the
    ``simulate`` CLI at a seeded constant policy, both in-process."""

    stream = 2

    def inputs(self, scenario, seed):
        rng = _rng(seed, self.stream)
        steps = np.sort(rng.choice(scenario.horizon, size=SCC_STEPS, replace=False))
        return {
            "steps": [int(t) for t in steps],
            "saving": float(rng.uniform(0.15, 0.35)),
            "mu": float(rng.uniform(0.0, 0.5)),
        }

    def job(self, scenario, inp, workdir):
        steps = ",".join(str(t) for t in inp["steps"])
        rc_scc = rg.cli.main(["scc", "--policy", "baseline", "--steps", steps,
                              "--threads", "1", "--out", str(workdir / "scc")])
        rc_sim = rg.cli.main(["simulate", "--saving", repr(inp["saving"]),
                              "--mu", repr(inp["mu"]), "--threads", "1",
                              "--out", str(workdir / "simulate")])
        return rc_scc, rc_sim

    def check(self, scenario, inp, out, workdir):
        problems = []
        for name, rc in zip(("scc", "simulate"), out):
            if rc != 0:
                problems.append(f"{name} exited with code {rc}")
                continue
            problems += _manifest_problems(workdir / name)
        if problems:
            return problems
        values = _scc_values(workdir)
        want = SCC_STEPS * scenario.n_regions
        if len(values) != want:
            problems.append(f"scc.csv has {len(values)} rows, expected {want}")
        if not all(math.isfinite(v) for v in values):
            problems.append("scc.csv holds a non-finite value")
        return problems

    def summary(self, out, workdir):
        with open(workdir / "simulate" / "summary.json", encoding="utf-8") as fh:
            sim = json.load(fh)
        return {
            "scc": _scc_values(workdir),
            "weighted_welfare": sim["weighted_welfare"],
            "terminal_t_at": sim["terminal_t_at_degc"],
        }

    def compare(self, got, ref):
        problems = []
        if len(got["scc"]) != len(ref["scc"]):
            return ["scc row count differs from reference"]
        gap = _rel_gap(got["scc"], ref["scc"])
        if not gap <= REF_SCC_RTOL:
            problems.append(f"scc differs from reference by {gap:.2e} relative")
        for key in ("weighted_welfare", "terminal_t_at"):
            gap = _rel_gap(got[key], ref[key])
            if not gap <= REF_SIM_RTOL:
                problems.append(f"simulate {key} differs from reference by {gap:.2e} relative")
        return problems


def _manifest_problems(outdir: Path) -> list:
    try:
        with open(outdir / "manifest.json", encoding="utf-8") as fh:
            listed = json.load(fh)["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{outdir.name}: unreadable manifest ({exc})"]
    on_disk = sorted(p.name for p in outdir.iterdir())
    if sorted(listed) != on_disk:
        return [f"{outdir.name}: manifest lists {sorted(listed)}, directory holds {on_disk}"]
    return []


def _scc_values(workdir: Path) -> list:
    with open(workdir / "scc" / "scc.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(row["scc_usd_per_tco2"]) for row in rows]


def make_workloads() -> dict:
    nash = Nash()
    return {"swm": Swm(), "nash": nash, "rhfa": Rhfa(nash), "scc": Scc()}


def inputs_digest(inp: dict) -> str:
    """SHA-256 over a job's inputs, to show they are byte-identical."""
    digest = hashlib.sha256()
    for key in sorted(inp):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(inp[key], dtype=float).tobytes())
    return digest.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
