"""The CLI's per-cell table writers, the reference for ``reporting``'s
row-at-a-time writers: every number through ``fmt`` one cell at a time,
every row through ``csv.writer``, and ``json.dump`` streamed to the file."""

from __future__ import annotations

import csv
import json

import numpy as np

from rice_game.reporting import trajectory_header


def fmt(x: float) -> str:
    """Render a float with 17 significant digits."""
    return "%.17g" % float(x)


def write_json(obj, path) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(traj, profile, scenario, path) -> None:
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
