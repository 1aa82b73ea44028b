"""Scenario-driven command line interface.

Subcommands: simulate, swm, pareto, mpc, rba, rhfa, scc, validate. Each
run writes its outputs plus a manifest.json into the output directory
(--out, falling back to the RICE_GAME_OUT environment variable, then the
working directory). Exit codes: 0 success, 1 scenario validation or file
failure, 2 model or solver error, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    ScenarioFormatError,
    build_default_scenario,
    load_scenario,
    serialize_scenario,
    validate_scenario,
)
from .cooperative import mpc_rice, pareto_frontier, solve_swm
from .model import (
    ControlProfile,
    ModelDomainError,
    RiceGameError,
    regional_welfare,
    simulate,
    social_cost_of_co2,
)
from .noncooperative import _check_lengths, rba_dg, rhfa_dg, verify_epsilon_ne
from .reporting import (
    RunManifest,
    sha256_file,
    write_episodes_csv,
    write_frontier_csv,
    write_json,
    write_manifest,
    write_scc_csv,
    write_trajectory_csv,
)
from .solver import SolveOptions

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MODEL = 2
EXIT_USAGE = 64


def _steps(text: str) -> str:
    """Check --steps while parsing; the manifest records the text as given."""
    try:
        [int(s) for s in text.split(",") if s != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("must be comma-separated integers") from None
    return text


def _at_least(low: int):
    """argparse type for an integer flag that must be ``low`` or more."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="rice-game", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, seed=None, horizon=False, t_rh=False, t_sim=False):
        """Add the shared flags; ``seed`` is the help of --seed, if it is taken."""
        p.add_argument("--scenario", help="scenario file (default: packaged scenario)")
        p.add_argument("--out", help="output directory (default: $RICE_GAME_OUT or .)")
        if seed:
            p.add_argument("--seed", type=_at_least(0), default=0, help=seed)
        p.add_argument(
            "--threads",
            type=_at_least(1),
            default=1,
            help="accepted and recorded in the manifest (default 1); no subcommand"
            " reads it, so outputs do not depend on it",
        )
        if horizon:
            p.add_argument("--horizon", type=int, help="planning horizon override")
        if t_rh:
            p.add_argument("--t-rh", type=int, required=True, help="window length")
        if t_sim:
            p.add_argument("--t-sim", type=int, required=True, help="steps to play")

    p = sub.add_parser("simulate", help="roll out a constant control profile")
    common(p, horizon=True)
    p.add_argument("--saving", type=float, default=0.25, help="savings rate")
    p.add_argument("--mu", type=float, default=0.0, help="emission control rate")

    p = sub.add_parser("swm", help="maximize weighted social welfare")
    common(p, seed="seed of the SWM 4-way multistart", horizon=True)

    p = sub.add_parser("pareto", help="trace the developed/developing frontier")
    common(p, seed="seed of each point's 2-way multistart", horizon=True)
    p.add_argument("--grid", type=_at_least(1), default=21, help="number of p values")

    p = sub.add_parser("mpc", help="receding-horizon welfare maximization")
    common(p, t_rh=True, t_sim=True)

    p = sub.add_parser("rba", help="recursive best response toward open-loop Nash")
    common(p, seed="seed of the start's SWM 4-way multistart", horizon=True)
    p.add_argument("--episodes", type=_at_least(1), default=21, metavar="N",
                   help="at most N best-response rounds")
    p.add_argument(
        "--verify-ne",
        action="store_true",
        help="audit the final profile for epsilon-Nash",
    )

    p = sub.add_parser("rhfa", help="receding-horizon feedback play")
    common(p, seed="seed of the start's SWM 4-way multistart", t_rh=True, t_sim=True)

    p = sub.add_parser("scc", help="social cost of CO2 along a policy")
    common(p, seed="seed of --policy swm's SWM 4-way multistart", horizon=True)
    p.add_argument(
        "--policy",
        choices=["baseline", "swm"],
        default="swm",
        help="profile under which to evaluate",
    )
    p.add_argument(
        "--steps",
        type=_steps,
        default="0,2,4,6,8,10",
        help="comma-separated step indices",
    )

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("--scenario", help="scenario file (default: packaged scenario)")
    return parser


@functools.cache
def _packaged() -> tuple:
    """The packaged scenario and the sha256 of its JSON document, built once;
    no subcommand mutates the shared scenario."""
    scenario = build_default_scenario()
    doc = json.dumps(serialize_scenario(scenario), sort_keys=True)
    return scenario, hashlib.sha256(doc.encode()).hexdigest()


@functools.cache
def _packaged_problems() -> list:
    """What :func:`validate_scenario` finds in the packaged scenario, found once."""
    return validate_scenario(_packaged()[0])


def _load(args) -> tuple:
    """Resolve the scenario, returning (scenario, label, sha256)."""
    if args.scenario:
        scenario = load_scenario(args.scenario)
        label = str(args.scenario)
        digest = sha256_file(args.scenario)
    else:
        scenario, digest = _packaged()
        label = "packaged-default"
    horizon = getattr(args, "horizon", None)
    if horizon is not None:
        scenario = dataclasses.replace(scenario, horizon=int(horizon))
    if args.scenario or horizon is not None:
        problems = validate_scenario(scenario)
    else:
        problems = _packaged_problems()
    if problems:
        for msg in problems:
            print(f"invalid scenario: {msg}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    return scenario, label, digest


def _run(args) -> int:
    """Load the scenario, run the subcommand, write summary.json and manifest.json."""
    scenario, label, digest = _load(args)
    outdir = Path(args.out or os.environ.get("RICE_GAME_OUT") or ".")
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        summary, outputs = _COMMANDS[args.command](args, scenario, outdir)
    except BaseException:
        # A failed run removes the directories it made while they are empty.
        for d in created:
            try:
                d.rmdir()
            except OSError:
                break
        raise
    write_json(summary, outdir / "summary.json")
    options = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    options["scenario"] = label
    manifest = RunManifest(
        subcommand=args.command,
        tool_version=__version__,
        scenario=label,
        scenario_sha256=digest,
        options=options,
        outputs=sorted(outputs + ["summary.json", "manifest.json"]),
    )
    write_manifest(manifest, outdir / "manifest.json")
    return EXIT_OK


def _solver_summary(report) -> dict:
    return {
        "objective": report.objective,
        "iterations": report.iterations,
        "evaluations": report.n_evaluations,
        "termination": report.termination,
        "start_index": report.start_index,
        "start_objectives": list(report.start_objectives),
    }


def _cmd_simulate(args, scenario, outdir) -> tuple:
    profile = ControlProfile.constant(
        scenario.n_regions, scenario.horizon, args.saving, args.mu
    )
    traj = simulate(scenario.x0, profile, scenario)
    write_trajectory_csv(traj, profile, scenario, outdir / "trajectory.csv")
    welfare = regional_welfare(traj, scenario)
    summary = {
        "terminal_t_at_degc": float(traj.states[-2, 0]),
        "terminal_year": scenario.year(traj.horizon),
        "welfare_per_region": dict(
            zip(scenario.region_names, [float(w) for w in welfare])
        ),
        "weighted_welfare": float(welfare @ scenario.weights),
    }
    return summary, ["trajectory.csv"]


def _swm(args, scenario):
    """The cooperative optimum: SWM with a 4-way multistart seeded by --seed."""
    return solve_swm(scenario, SolveOptions(multistart=4, seed=args.seed))


def _cmd_swm(args, scenario, outdir) -> tuple:
    result = _swm(args, scenario)
    write_trajectory_csv(result.trajectory, result.profile, scenario,
                         outdir / "trajectory.csv")
    summary = {
        "welfare": result.welfare,
        "welfare_per_region": dict(
            zip(scenario.region_names, [float(w) for w in result.regional_welfare])
        ),
        "terminal_t_at_degc": float(result.trajectory.states[-2, 0]),
        "terminal_year": scenario.year(result.trajectory.horizon),
        "solver": _solver_summary(result.report),
    }
    return summary, ["trajectory.csv"]


def _cmd_pareto(args, scenario, outdir) -> tuple:
    grid = np.linspace(0.0, 1.0, args.grid)
    result = pareto_frontier(scenario, grid, SolveOptions(multistart=2, seed=args.seed))
    write_frontier_csv(result.points, outdir / "frontier.csv")
    summary = {
        "points": [
            {
                "p": pt.p,
                "welfare_developed": pt.welfare_developed,
                "welfare_developing": pt.welfare_developing,
                "terminal_t_at_degc": pt.terminal_t_at,
            }
            for pt in result.points
        ],
        "failures": [{"p": p, "error": msg} for p, msg in result.failures],
        "dominance_violations": [list(v) for v in result.dominance_violations],
    }
    return summary, ["frontier.csv"]


def _cmd_mpc(args, scenario, outdir) -> tuple:
    result = mpc_rice(scenario, args.t_sim, args.t_rh)
    write_trajectory_csv(result.trajectory, result.profile, scenario,
                         outdir / "trajectory.csv")
    summary = {
        "t_rh": args.t_rh,
        "t_sim": args.t_sim,
        "terminal_t_at_degc": float(result.trajectory.states[-2, 0]),
        "window_objectives": [float(v) for v in result.window_objectives],
        "window_initial_objectives": [
            float(v) for v in result.window_initial_objectives
        ],
    }
    return summary, ["trajectory.csv"]


def _cmd_rba(args, scenario, outdir) -> tuple:
    result = rba_dg(scenario, _swm(args, scenario).profile, episodes=args.episodes)
    write_trajectory_csv(result.trajectory, result.profile, scenario,
                         outdir / "trajectory.csv")
    write_episodes_csv(result.episodes, scenario.region_names,
                       outdir / "episodes.csv")
    summary = {
        "episodes": len(result.episodes) - 1,
        "converged": result.converged,
        "distance_inf_last": float(result.episodes[-1].distance_inf),
        "nash_residual_last": float(result.episodes[-1].nash_residual.max()),
        "terminal_t_at_degc": float(result.trajectory.states[-2, 0]),
        "welfare_per_region": dict(
            zip(
                scenario.region_names,
                [float(w) for w in result.episodes[-1].welfare],
            )
        ),
    }
    outputs = ["trajectory.csv", "episodes.csv"]
    if args.verify_ne:
        cert = verify_epsilon_ne(scenario, result.profile)
        cert_doc = {
            "epsilon": cert.epsilon,
            "welfare": [float(w) for w in cert.welfare],
            "best_response_welfare": [float(w) for w in cert.best_response_welfare],
            "relative_gain": [float(g) for g in cert.relative_gain],
            "nash_residual": [float(r) for r in cert.nash_residual],
            "terminations": list(cert.terminations),
            "converged": cert.converged,
            "regions": list(scenario.region_names),
        }
        write_json(cert_doc, outdir / "ne_certificate.json")
        summary["epsilon"] = cert.epsilon
        outputs.append("ne_certificate.json")
    return summary, outputs


def _cmd_rhfa(args, scenario, outdir) -> tuple:
    # Checked before the SWM solve, which can take seconds.
    _check_lengths(scenario, args.t_sim, args.t_rh, args.t_rh)
    first = _swm(args, scenario).profile.controls[:, 0, :]
    result = rhfa_dg(scenario, args.t_sim, args.t_rh, first)
    write_trajectory_csv(result.trajectory, result.profile, scenario,
                         outdir / "trajectory.csv")
    summary = {
        "t_rh": args.t_rh,
        "t_sim": args.t_sim,
        "terminal_t_at_degc": float(result.trajectory.states[-2, 0]),
    }
    return summary, ["trajectory.csv"]


def _cmd_scc(args, scenario, outdir) -> tuple:
    steps = [int(s) for s in args.steps.split(",") if s != ""]
    # Checked before the policy solve, which can take seconds, with the
    # message social_cost_of_co2 would raise after it.
    if any(not 0 <= t <= scenario.horizon for t in steps):
        raise ModelDomainError("step index out of range")
    if args.policy == "swm":
        profile = _swm(args, scenario).profile
    else:
        profile = ControlProfile.constant(scenario.n_regions, scenario.horizon, 0.25, 0.0)
    table = social_cost_of_co2(scenario, scenario.x0, profile, steps)
    rows = [
        (scenario.year(t), nm, float(value))
        for t, row in zip(steps, table)
        for nm, value in zip(scenario.region_names, row)
    ]
    write_scc_csv(rows, outdir / "scc.csv")
    summary = {
        "policy": args.policy,
        "steps": steps,
        "scc_usd_per_tco2": [
            {"year": y, "region": r, "value": float(v)} for y, r, v in rows
        ],
    }
    return summary, ["scc.csv"]


def _cmd_validate(args) -> int:
    if args.scenario:
        scenario = load_scenario(args.scenario)
    else:
        scenario = build_default_scenario()
    problems = validate_scenario(scenario)
    if problems:
        for msg in problems:
            print(f"invalid: {msg}")
        return EXIT_VALIDATION
    print("scenario valid")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "swm": _cmd_swm,
    "pareto": _cmd_pareto,
    "mpc": _cmd_mpc,
    "rba": _cmd_rba,
    "rhfa": _cmd_rhfa,
    "scc": _cmd_scc,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        return _run(args)
    except OSError as exc:
        print(f"rice-game: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ScenarioFormatError as exc:
        print(f"rice-game: invalid scenario file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RiceGameError as exc:
        print(f"rice-game: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
