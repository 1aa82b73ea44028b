"""Scenario-driven command line interface.

Subcommands: simulate, swm, pareto, mpc, rba, rhfa, scc, validate. Each
run writes its outputs plus a manifest.json into the output directory
(--out, falling back to the RICE_GAME_OUT environment variable, then the
working directory). Exit codes: 0 success, 1 scenario validation failure,
2 model or solver error, 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    build_default_scenario,
    load_scenario,
    serialize_scenario,
    validate_scenario,
)
from .cooperative import mpc_rice, pareto_frontier, solve_swm
from .model import (
    ControlProfile,
    RiceGameError,
    regional_welfare,
    simulate,
    social_cost_of_co2,
)
from .noncooperative import rba_dg, rhfa_dg, verify_epsilon_ne
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


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rice-game", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, horizon=False, t_rh=False, t_sim=False):
        p.add_argument("--scenario", help="scenario file (default: packaged scenario)")
        p.add_argument("--out", help="output directory (default: $RICE_GAME_OUT or .)")
        p.add_argument("--seed", type=int, default=0, help="solver multistart seed")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="worker processes for parallel solves (default 1; pareto"
            " switches to parallel cold starts above 1)",
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
    common(p, horizon=True)

    p = sub.add_parser("pareto", help="trace the developed/developing frontier")
    common(p, horizon=True)
    p.add_argument("--grid", type=int, default=21, help="number of p values")

    p = sub.add_parser("mpc", help="receding-horizon welfare maximization")
    common(p, t_rh=True, t_sim=True)

    p = sub.add_parser("rba", help="recursive best response toward open-loop Nash")
    common(p, horizon=True)
    p.add_argument("--episodes", type=int, default=21, help="best-response rounds")
    p.add_argument(
        "--verify-ne",
        action="store_true",
        help="audit the final profile for epsilon-Nash",
    )

    p = sub.add_parser("rhfa", help="receding-horizon feedback play")
    common(p, t_rh=True, t_sim=True)

    p = sub.add_parser("scc", help="social cost of CO2 along a policy")
    common(p, horizon=True)
    p.add_argument(
        "--policy",
        choices=["baseline", "swm"],
        default="swm",
        help="profile under which to evaluate",
    )
    p.add_argument(
        "--steps",
        default="0,2,4,6,8,10",
        help="comma-separated step indices",
    )

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("--scenario", help="scenario file (default: packaged scenario)")
    return parser


def _load(args) -> tuple:
    """Resolve the scenario, returning (scenario, label, sha256)."""
    if args.scenario:
        scenario = load_scenario(args.scenario)
        label = str(args.scenario)
        digest = sha256_file(args.scenario)
    else:
        scenario = build_default_scenario()
        label = "packaged-default"
        doc = json.dumps(serialize_scenario(scenario), sort_keys=True)
        digest = hashlib.sha256(doc.encode()).hexdigest()
    horizon = getattr(args, "horizon", None)
    if horizon is not None:
        import dataclasses

        scenario = dataclasses.replace(scenario, horizon=int(horizon))
    problems = validate_scenario(scenario)
    if problems:
        for msg in problems:
            print(f"invalid scenario: {msg}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    return scenario, label, digest


def _outdir(args) -> Path:
    out = args.out or os.environ.get("RICE_GAME_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _options_dict(args, extra=None) -> dict:
    opts = {
        "scenario": args.scenario or "packaged-default",
        "seed": getattr(args, "seed", None),
        "threads": getattr(args, "threads", None),
    }
    for key in ("horizon", "t_rh", "t_sim", "grid", "episodes", "saving", "mu",
                "policy", "steps", "verify_ne"):
        if hasattr(args, key):
            opts[key] = getattr(args, key)
    if extra:
        opts.update(extra)
    return opts


def _finish(args, command, label, digest, outdir, outputs) -> int:
    manifest = RunManifest(
        subcommand=command,
        tool_version=__version__,
        scenario=label,
        scenario_sha256=digest,
        options=_options_dict(args),
        outputs=sorted(outputs),
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


def _cmd_simulate(args) -> int:
    scenario, label, digest = _load(args)
    outdir = _outdir(args)
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
    write_json(summary, outdir / "summary.json")
    return _finish(args, "simulate", label, digest, outdir,
                   ["trajectory.csv", "summary.json", "manifest.json"])


def _cmd_swm(args) -> int:
    scenario, label, digest = _load(args)
    outdir = _outdir(args)
    result = solve_swm(scenario, SolveOptions(multistart=4, seed=args.seed))
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
    write_json(summary, outdir / "summary.json")
    return _finish(args, "swm", label, digest, outdir,
                   ["trajectory.csv", "summary.json", "manifest.json"])


def _cmd_pareto(args) -> int:
    scenario, label, digest = _load(args)
    outdir = _outdir(args)
    grid = np.linspace(0.0, 1.0, args.grid)
    result = pareto_frontier(
        scenario, grid, SolveOptions(multistart=2, seed=args.seed), threads=args.threads
    )
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
    write_json(summary, outdir / "summary.json")
    return _finish(args, "pareto", label, digest, outdir,
                   ["frontier.csv", "summary.json", "manifest.json"])


def _cmd_mpc(args) -> int:
    scenario, label, digest = _load(args)
    outdir = _outdir(args)
    result = mpc_rice(scenario, args.t_sim, args.t_rh, SolveOptions(seed=args.seed))
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
    write_json(summary, outdir / "summary.json")
    return _finish(args, "mpc", label, digest, outdir,
                   ["trajectory.csv", "summary.json", "manifest.json"])


def _cmd_rba(args) -> int:
    scenario, label, digest = _load(args)
    outdir = _outdir(args)
    opts = SolveOptions(seed=args.seed)
    result = rba_dg(scenario, episodes=args.episodes, options=opts,
                    threads=args.threads)
    write_trajectory_csv(result.trajectory, result.profile, scenario,
                         outdir / "trajectory.csv")
    write_episodes_csv(result.episodes, scenario.region_names,
                       outdir / "episodes.csv")
    summary = {
        "episodes": len(result.episodes) - 1,
        "converged": result.converged,
        "distance_inf_last": float(result.episodes[-1].distance_inf),
        "terminal_t_at_degc": float(result.trajectory.states[-2, 0]),
        "welfare_per_region": dict(
            zip(
                scenario.region_names,
                [float(w) for w in result.episodes[-1].welfare],
            )
        ),
    }
    outputs = ["trajectory.csv", "episodes.csv", "summary.json", "manifest.json"]
    if args.verify_ne:
        cert = verify_epsilon_ne(scenario, result.profile, opts, threads=args.threads)
        cert_doc = {
            "epsilon": cert.epsilon,
            "welfare": [float(w) for w in cert.welfare],
            "best_response_welfare": [float(w) for w in cert.best_response_welfare],
            "relative_gain": [float(g) for g in cert.relative_gain],
            "terminations": list(cert.terminations),
            "converged": cert.converged,
            "regions": list(scenario.region_names),
        }
        write_json(cert_doc, outdir / "ne_certificate.json")
        summary["epsilon"] = cert.epsilon
        outputs.append("ne_certificate.json")
    write_json(summary, outdir / "summary.json")
    return _finish(args, "rba", label, digest, outdir, outputs)


def _cmd_rhfa(args) -> int:
    scenario, label, digest = _load(args)
    outdir = _outdir(args)
    result = rhfa_dg(scenario, args.t_sim, args.t_rh, SolveOptions(seed=args.seed),
                     threads=args.threads)
    write_trajectory_csv(result.trajectory, result.profile, scenario,
                         outdir / "trajectory.csv")
    summary = {
        "t_rh": args.t_rh,
        "t_sim": args.t_sim,
        "terminal_t_at_degc": float(result.trajectory.states[-2, 0]),
    }
    write_json(summary, outdir / "summary.json")
    return _finish(args, "rhfa", label, digest, outdir,
                   ["trajectory.csv", "summary.json", "manifest.json"])


def _cmd_scc(args) -> int:
    scenario, label, digest = _load(args)
    outdir = _outdir(args)
    try:
        steps = [int(s) for s in args.steps.split(",") if s != ""]
    except ValueError:
        print("scc: --steps must be comma-separated integers", file=sys.stderr)
        return EXIT_USAGE
    if args.policy == "swm":
        profile = solve_swm(scenario, SolveOptions(multistart=4, seed=args.seed)).profile
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
    write_json(summary, outdir / "summary.json")
    return _finish(args, "scc", label, digest, outdir,
                   ["scc.csv", "summary.json", "manifest.json"])


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
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        raise exc
    except FileNotFoundError as exc:
        print(f"rice-game: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RiceGameError as exc:
        from .calibration import ScenarioFormatError

        if isinstance(exc, ScenarioFormatError):
            print(f"rice-game: invalid scenario file: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"rice-game: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
