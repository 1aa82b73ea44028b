"""The row-at-a-time writers write the same bytes as the per-cell oracle."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import reporting_oracle as oracle
from conftest import make_scenario, random_profile

from rice_game import (
    ControlProfile, reporting, simulate, social_cost_of_co2, solve_swm,
)
from rice_game.noncooperative import Episode


def same_bytes(tmp_path, name, *args):
    """Write with ``reporting.<name>`` and the oracle's; return the bytes."""
    new, old = tmp_path / "new", tmp_path / "old"
    getattr(reporting, name)(*args, new)
    getattr(oracle, name)(*args, old)
    assert new.read_bytes() == old.read_bytes()
    return new.read_bytes()


@pytest.fixture()
def odd_names():
    """A 3-region scenario whose names csv must quote."""
    return dataclasses.replace(make_scenario(), region_names=['a,b', 'say "hi"', "line\nbreak"])


def constant(sc):
    return ControlProfile.constant(sc.n_regions, sc.horizon, 0.25, 0.1)


def write_trajectory(tmp_path, sc, profile):
    traj = simulate(sc.x0, profile, sc)
    return same_bytes(tmp_path, "write_trajectory_csv", traj, profile, sc)


def test_trajectory_constant_profile(tmp_path, default_scenario):
    text = write_trajectory(tmp_path, default_scenario, constant(default_scenario))
    lines = text.split(b"\r\n")
    assert len(lines) == default_scenario.horizon + 4  # header, T+2 rows, final CRLF
    assert lines[-2].endswith(b"," * (7 * default_scenario.n_regions + 2))


def test_trajectory_random_profile(tmp_path, default_scenario, rng):
    profile = random_profile(default_scenario, default_scenario.horizon + 1, rng)
    write_trajectory(tmp_path, default_scenario, profile)


def test_trajectory_solved_profile(tmp_path, default_scenario):
    sc = dataclasses.replace(default_scenario, horizon=4)
    result = solve_swm(sc)
    same_bytes(tmp_path, "write_trajectory_csv", result.trajectory, result.profile, sc)


def test_trajectory_quoted_region_names(tmp_path, odd_names):
    text = write_trajectory(tmp_path, odd_names, constant(odd_names))
    assert b'"k_a,b_trillion_usd"' in text and b'"s_say ""hi"""' in text


def scc_rows(sc, steps):
    table = social_cost_of_co2(sc, sc.x0, constant(sc), steps)
    return [(sc.year(t), nm, float(v))
            for t, row in zip(steps, table) for nm, v in zip(sc.region_names, row)]


def test_scc_no_rows(tmp_path):
    assert same_bytes(tmp_path, "write_scc_csv", []) == b"year,region,scc_usd_per_tco2\r\n"


def test_scc_720_rows(tmp_path, default_scenario):
    rows = scc_rows(default_scenario, list(range(0, 120, 2)))
    assert len(rows) == 720
    same_bytes(tmp_path, "write_scc_csv", rows)


def test_scc_quoted_region_names(tmp_path, odd_names):
    rows = scc_rows(odd_names, [0, 3]) + [(2030, "", float("nan")), (2035, "x", -0.0)]
    same_bytes(tmp_path, "write_scc_csv", rows)


def episodes(n, rng):
    eps = [Episode(0, None, rng.normal(size=n), float("nan"), float("nan"), rng.random(n))]
    for k in range(1, 4):
        eps.append(Episode(k, None, rng.normal(size=n), *rng.random(2), rng.random(n)))
    eps.append(Episode(4, None, np.array([-0.0, np.inf, np.nan][:n] + [1.0] * (n - 3)),
                       0.5, float("nan"), np.full(n, 1e-300)))
    return eps


def test_episodes_blank_only_the_start_distances(tmp_path, rng):
    names = make_scenario().region_names
    text = same_bytes(tmp_path, "write_episodes_csv", episodes(3, rng), names)
    rows = text.split(b"\r\n")
    assert rows[1].startswith(b"0,,,")
    assert rows[5].startswith(b"4,0.5,nan,")


def test_episodes_quoted_region_names(tmp_path, rng, odd_names):
    same_bytes(tmp_path, "write_episodes_csv", episodes(3, rng), odd_names.region_names)


@pytest.mark.parametrize("count", [0, 5])
def test_frontier(tmp_path, rng, count):
    points = [SimpleNamespace(p=p, welfare_developed=a, welfare_developing=b, terminal_t_at=t)
              for p, a, b, t in rng.normal(size=(count, 4)) * 1e3]
    same_bytes(tmp_path, "write_frontier_csv", points)


def test_json(tmp_path, odd_names):
    doc = {
        "z": [1.0, -0.0, float("nan"), float("inf"), 1e-300, 0.1 + 0.2],
        "names": odd_names.region_names + ["Zürich"],
        "nested": {"b": None, "a": True, "c": [], "d": {}},
        "count": 3,
    }
    text = same_bytes(tmp_path, "write_json", doc)
    assert text.endswith(b"}\n")
    manifest = reporting.RunManifest("scc", "0.1.0", "packaged-default", "0" * 64,
                                     {"steps": "0,2"}, ["scc.csv"])
    same_bytes(tmp_path, "write_json", manifest.to_dict())
