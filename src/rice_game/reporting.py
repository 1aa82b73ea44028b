"""Deterministic CSV/JSON writers and the run manifest.

All numbers are written with 17 significant digits so values round-trip
exactly; no timestamps or machine identifiers appear anywhere, which makes
re-running a manifest reproduce every output byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import ControlProfile, Scenario, Trajectory

__all__ = [
    "RunManifest",
    "fmt",
    "write_trajectory_csv",
    "write_frontier_csv",
    "write_episodes_csv",
    "write_scc_csv",
    "write_json",
    "write_manifest",
    "sha256_file",
]


def fmt(x: float) -> str:
    """Render a float with 17 significant digits."""
    return "%.17g" % float(x)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Everything needed to reproduce a CLI run.

    ``options`` holds every option value after defaulting; ``scenario``
    is the file path or ``"packaged-default"``; ``scenario_sha256``
    fingerprints the exact scenario document used.
    """

    subcommand: str
    tool_version: str
    scenario: str
    scenario_sha256: str
    options: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def write_json(obj, path) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(manifest: RunManifest, path) -> None:
    write_json(manifest.to_dict(), path)


def trajectory_header(scenario: Scenario) -> list[str]:
    names = scenario.region_names
    cols = ["year", "t_at_degc", "t_lo_degc", "m_at_gtc", "m_up_gtc", "m_lo_gtc"]
    cols += [f"k_{nm}_trillion_usd" for nm in names]
    for nm in names:
        cols += [
            f"s_{nm}",
            f"mu_{nm}",
            f"y_{nm}_trillion_usd",
            f"q_{nm}_trillion_usd",
            f"c_{nm}_trillion_usd",
            f"lambda_{nm}",
            f"omega_{nm}",
        ]
    cols += ["e_total_gtco2", "f_wm2"]
    return cols


def write_trajectory_csv(
    traj: Trajectory, profile: ControlProfile, scenario: Scenario, path
) -> None:
    """Write the rollout as one row per step.

    Rows 0..T carry state, controls, and flows; the final row T+1 carries
    the terminal state with the flow columns left empty.
    """
    n = scenario.n_regions
    horizon = traj.horizon
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trajectory_header(scenario))
        for t in range(horizon + 2):
            row = [str(scenario.year(t))]
            row += [fmt(v) for v in traj.states[t]]
            if t <= horizon:
                for i in range(n):
                    row += [
                        fmt(profile.controls[i, t, 0]),
                        fmt(profile.controls[i, t, 1]),
                        fmt(traj.gross_output[t, i]),
                        fmt(traj.net_output[t, i]),
                        fmt(traj.consumption[t, i]),
                        fmt(traj.abatement_fraction[t, i]),
                        fmt(traj.damage_fraction[t, i]),
                    ]
                row += [fmt(traj.total_emissions[t]), fmt(traj.forcing[t])]
            else:
                row += [""] * (7 * n + 2)
            writer.writerow(row)


def write_frontier_csv(points, path) -> None:
    """One row per frontier point: p, cluster welfares, terminal warming."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["p", "welfare_developed", "welfare_developing", "terminal_t_at_degc"]
        )
        for pt in points:
            writer.writerow(
                [
                    fmt(pt.p),
                    fmt(pt.welfare_developed),
                    fmt(pt.welfare_developing),
                    fmt(pt.terminal_t_at),
                ]
            )


def write_episodes_csv(episodes, region_names, path) -> None:
    """One row per best-response episode: distances, the largest Nash residual
    over regions, and welfares."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["episode", "distance_inf", "distance_2", "nash_residual"]
        header += [f"welfare_{nm}" for nm in region_names]
        writer.writerow(header)
        for ep in episodes:
            row = [str(ep.index)]
            if np.isnan(ep.distance_inf):
                row += ["", ""]
            else:
                row += [fmt(ep.distance_inf), fmt(ep.distance_2)]
            row.append(fmt(ep.nash_residual.max()))
            row += [fmt(w) for w in ep.welfare]
            writer.writerow(row)


def write_scc_csv(rows, path) -> None:
    """Rows of (year, region, scc_usd_per_tco2)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "region", "scc_usd_per_tco2"])
        for year, region, value in rows:
            writer.writerow([str(year), region, fmt(value)])
