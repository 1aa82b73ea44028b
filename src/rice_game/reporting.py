"""Deterministic CSV/JSON writers and the run manifest.

All numbers are written with 17 significant digits so values round-trip
exactly; no timestamps or machine identifiers appear anywhere, which makes
re-running a manifest reproduce every output byte for byte. Each table is
one float block formatted a row at a time; headers and text cells go
through ``csv.writer``, and each file goes out in one write.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import ControlProfile, Scenario, Trajectory

__all__ = [
    "RunManifest",
    "write_trajectory_csv",
    "write_frontier_csv",
    "write_episodes_csv",
    "write_scc_csv",
    "write_json",
    "write_manifest",
    "sha256_file",
]


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
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_manifest(manifest: RunManifest, path) -> None:
    write_json(manifest.to_dict(), path)


def _csv_line(cells) -> str:
    """``cells`` as one ``csv.writer`` row: quoted where needed, CRLF-ended."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


def _number_rows(rows, width: int) -> list[str]:
    """Each row of ``rows``, as a (-1, width) float block, with its cells in
    %.17g joined by commas. Numbers never need csv quoting."""
    line = ",".join(["%.17g"] * width)
    block = np.asarray(rows, dtype=float).reshape(-1, width)
    return [line % tuple(row) for row in block.tolist()]


def _write_csv(path, header, rows) -> None:
    """Write the header through ``csv.writer`` and then the formatted
    ``rows``, each ended with csv's CRLF, in one write."""
    text = _csv_line(header) + "\r\n".join([*rows, ""])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


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
    steps = traj.horizon + 1
    flows = (profile.controls[:, :steps, 0].T, profile.controls[:, :steps, 1].T,
             traj.gross_output, traj.net_output, traj.consumption,
             traj.abatement_fraction, traj.damage_fraction)
    # Each region's [s, mu, Y, Q, C, Lambda, Omega] side by side.
    regional = np.stack([f[:steps] for f in flows], axis=2).reshape(steps, -1)
    block = np.hstack([traj.states[:steps], regional,
                       traj.total_emissions[:steps, None], traj.forcing[:steps, None]])
    rows = [f"{scenario.year(t)},{cells}"
            for t, cells in enumerate(_number_rows(block, block.shape[1]))]
    (terminal,) = _number_rows(traj.states[steps:], traj.states.shape[1])
    rows.append(f"{scenario.year(steps)},{terminal}" + "," * (7 * scenario.n_regions + 2))
    _write_csv(path, trajectory_header(scenario), rows)


def write_frontier_csv(points, path) -> None:
    """One row per frontier point: p, cluster welfares, terminal warming."""
    block = [[pt.p, pt.welfare_developed, pt.welfare_developing, pt.terminal_t_at]
             for pt in points]
    _write_csv(path, ["p", "welfare_developed", "welfare_developing", "terminal_t_at_degc"],
               _number_rows(block, 4))


def write_episodes_csv(episodes, region_names, path) -> None:
    """One row per best-response episode: distances, the largest Nash residual
    over regions, and welfares. An episode with no distance (the start) leaves
    both distance cells empty."""
    header = ["episode", "distance_inf", "distance_2", "nash_residual"]
    header += [f"welfare_{nm}" for nm in region_names]
    distances = _number_rows([[ep.distance_inf, ep.distance_2] for ep in episodes], 2)
    rest = _number_rows([[ep.nash_residual.max(), *ep.welfare] for ep in episodes],
                        1 + len(region_names))
    rows = [f"{ep.index},{',' if np.isnan(ep.distance_inf) else d},{r}"
            for ep, d, r in zip(episodes, distances, rest, strict=True)]
    _write_csv(path, header, rows)


def write_scc_csv(rows, path) -> None:
    """Rows of (year, region, scc_usd_per_tco2)."""
    rows = list(rows)
    values = _number_rows([v for _, _, v in rows], 1)
    # A region name quoted as csv.writer quotes it inside a row: after an
    # empty cell, since a row of one empty cell would be written as "".
    cells = {region: _csv_line(["", region])[1:-2] for region in {r for _, r, _ in rows}}
    _write_csv(path, ["year", "region", "scc_usd_per_tco2"],
               [f"{year},{cells[region]},{value}"
                for (year, region, _), value in zip(rows, values, strict=True)])
