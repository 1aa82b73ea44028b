"""End-to-end command line checks on a small scenario file."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_scenario

import rice_game
from rice_game import __version__, save_scenario
from rice_game.cli import main
from rice_game.reporting import sha256_file, trajectory_header


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "toy.json"
    save_scenario(make_scenario(), path)
    return path


def run(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Exit codes and global flags
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["transmogrify"])
    assert exc.value.code == 64


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 64


def test_missing_required_option_is_usage_error(scenario_file):
    with pytest.raises(SystemExit) as exc:
        run(["mpc", "--scenario", scenario_file, "--t-sim", "3"])
    assert exc.value.code == 64


def test_missing_scenario_file_exits_one(tmp_path, capsys):
    code = run(["validate", "--scenario", tmp_path / "absent.json"])
    assert code == 1


def test_unparseable_scenario_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["validate", "--scenario", bad])
    assert code == 1


def test_model_error_exits_two(scenario_file, tmp_path, capsys):
    code = run(
        ["mpc", "--scenario", scenario_file, "--out", tmp_path / "o",
         "--t-sim", "35", "--t-rh", "10"]
    )
    assert code == 2
    assert "rice-game:" in capsys.readouterr().err


def _declared_entry_point():
    """The ``rice-game`` target declared in pyproject.toml, as (module, attr)."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["rice-game"]
    module, attr = target.split(":")
    return module, attr


def _checkout_env():
    """Environment for a fresh interpreter that imports this checkout."""
    package_root = str(Path(rice_game.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env


def test_console_script_is_installed():
    # Run the declared entry point the way pip's generated script does, and
    # `python -m rice_game`, in fresh interpreters that import this checkout.
    module, attr = _declared_entry_point()
    env = _checkout_env()
    commands = [
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())",
         "--version"],
        [sys.executable, "-m", "rice_game", "--version"],
    ]
    # Where the package is installed, check the real script as well.
    script = shutil.which("rice-game")
    if script is not None:
        commands.append([script, "--version"])
    for cmd in commands:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, f"{cmd} failed:\n{proc.stderr}"
        assert __version__ in proc.stdout


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_packaged_default(capsys):
    assert run(["validate"]) == 0
    assert "scenario valid" in capsys.readouterr().out


def test_validate_flags_bad_values(scenario_file, tmp_path, capsys):
    doc = json.loads(scenario_file.read_text())
    doc["geo"]["phi11"] = -0.5
    bad = tmp_path / "bad_geo.json"
    bad.write_text(json.dumps(doc))
    code = run(["validate", "--scenario", bad])
    assert code == 1
    assert "phi11" in capsys.readouterr().out


def test_validate_rejects_wrong_json_type_without_traceback(scenario_file, tmp_path):
    doc = json.loads(scenario_file.read_text())
    doc["geo"]["phi11"] = "abc"
    bad = tmp_path / "bad_type.json"
    bad.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "rice_game", "validate", "--scenario", str(bad)],
        capture_output=True, text=True, env=_checkout_env(),
    )
    assert proc.returncode == 1
    assert "invalid scenario file: geo.phi11 must be a number" in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_all_outputs(scenario_file, tmp_path):
    out = tmp_path / "run"
    code = run(
        ["simulate", "--scenario", scenario_file, "--out", out,
         "--saving", "0.3", "--mu", "0.2"]
    )
    assert code == 0
    sc = make_scenario()

    rows = read_csv(out / "trajectory.csv")
    assert rows[0] == trajectory_header(sc)
    assert len(rows) == 1 + sc.horizon + 2
    assert rows[1][0] == "2020"
    assert rows[-1][0] == str(2020 + 5 * (sc.horizon + 1))
    # The terminal row carries only the state; flow columns stay empty.
    assert rows[-1][6 + sc.n_regions] == ""
    s_col = rows[0].index("s_R0")
    assert float(rows[1][s_col]) == 0.3
    assert float(rows[1][s_col + 1]) == 0.2

    summary = read_json(out / "summary.json")
    assert set(summary) == {
        "terminal_t_at_degc",
        "terminal_year",
        "welfare_per_region",
        "weighted_welfare",
    }
    assert summary["terminal_year"] == 2020 + 5 * sc.horizon
    assert set(summary["welfare_per_region"]) == set(sc.region_names)

    manifest = read_json(out / "manifest.json")
    assert manifest["subcommand"] == "simulate"
    assert manifest["tool_version"] == __version__
    assert manifest["scenario"] == str(scenario_file)
    assert manifest["scenario_sha256"] == sha256_file(scenario_file)
    assert manifest["outputs"] == ["manifest.json", "summary.json", "trajectory.csv"]
    assert manifest["options"]["saving"] == 0.3
    assert manifest["options"]["mu"] == 0.2


def test_threads_default_ignores_core_count(scenario_file, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    out = tmp_path / "run"
    assert run(["simulate", "--scenario", scenario_file, "--out", out]) == 0
    assert read_json(out / "manifest.json")["options"]["threads"] == 1


def test_simulate_is_reproducible(scenario_file, tmp_path):
    args = ["simulate", "--scenario", scenario_file]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    for name in ("trajectory.csv", "summary.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_out_env_fallback_and_precedence(scenario_file, tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("RICE_GAME_OUT", str(env_dir))
    assert run(["simulate", "--scenario", scenario_file]) == 0
    assert (env_dir / "manifest.json").exists()

    flag_dir = tmp_path / "flag_out"
    assert run(["simulate", "--scenario", scenario_file, "--out", flag_dir]) == 0
    assert (flag_dir / "manifest.json").exists()


# ---------------------------------------------------------------------------
# solver subcommands
# ---------------------------------------------------------------------------


def test_swm_with_horizon_override(scenario_file, tmp_path):
    out = tmp_path / "swm"
    code = run(
        ["swm", "--scenario", scenario_file, "--out", out, "--horizon", "5"]
    )
    assert code == 0
    summary = read_json(out / "summary.json")
    assert summary["terminal_year"] == 2020 + 5 * 5
    assert np.isfinite(summary["welfare"])
    solver = summary["solver"]
    assert solver["objective"] == pytest.approx(summary["welfare"])
    assert solver["iterations"] > 0
    assert len(solver["start_objectives"]) == 4
    assert read_json(out / "manifest.json")["options"]["horizon"] == 5
    rows = read_csv(out / "trajectory.csv")
    assert len(rows) == 1 + 5 + 2


def test_pareto_writes_frontier(scenario_file, tmp_path):
    out = tmp_path / "pareto"
    code = run(
        ["pareto", "--scenario", scenario_file, "--out", out,
         "--grid", "3", "--horizon", "5", "--threads", "1"]
    )
    assert code == 0
    rows = read_csv(out / "frontier.csv")
    assert rows[0] == ["p", "welfare_developed", "welfare_developing",
                       "terminal_t_at_degc"]
    assert len(rows) == 4
    assert [float(r[0]) for r in rows[1:]] == [0.0, 0.5, 1.0]
    summary = read_json(out / "summary.json")
    assert len(summary["points"]) == 3
    assert summary["failures"] == []
    assert summary["dominance_violations"] == []


def test_mpc_writes_window_objectives(scenario_file, tmp_path):
    out = tmp_path / "mpc"
    code = run(
        ["mpc", "--scenario", scenario_file, "--out", out,
         "--t-sim", "3", "--t-rh", "2"]
    )
    assert code == 0
    summary = read_json(out / "summary.json")
    assert len(summary["window_objectives"]) == 4
    assert len(summary["window_initial_objectives"]) == 4
    played = np.array(summary["window_objectives"])
    inits = np.array(summary["window_initial_objectives"])
    assert np.all(played >= inits - 1e-9 * np.abs(inits))


def test_rba_with_certificate(scenario_file, tmp_path):
    out = tmp_path / "rba"
    code = run(
        ["rba", "--scenario", scenario_file, "--out", out, "--horizon", "5",
         "--episodes", "2", "--threads", "1", "--verify-ne"]
    )
    assert code == 0
    rows = read_csv(out / "episodes.csv")
    sc = make_scenario()
    assert rows[0] == ["episode", "distance_inf", "distance_2"] + [
        f"welfare_{nm}" for nm in sc.region_names
    ]
    assert rows[1][0] == "0" and rows[1][1] == "" and rows[1][2] == ""
    assert len(rows) in (3, 4)
    cert = read_json(out / "ne_certificate.json")
    assert set(cert) == {
        "epsilon",
        "welfare",
        "best_response_welfare",
        "relative_gain",
        "terminations",
        "converged",
        "regions",
    }
    assert cert["epsilon"] >= -1e-12
    assert len(cert["terminations"]) == sc.n_regions
    assert cert["converged"] == all(
        t in ("gradient", "objective-change") for t in cert["terminations"]
    )
    summary = read_json(out / "summary.json")
    assert summary["epsilon"] == cert["epsilon"]
    manifest = read_json(out / "manifest.json")
    assert "ne_certificate.json" in manifest["outputs"]


def test_rhfa_runs(scenario_file, tmp_path):
    out = tmp_path / "rhfa"
    code = run(
        ["rhfa", "--scenario", scenario_file, "--out", out,
         "--t-sim", "2", "--t-rh", "2", "--threads", "1"]
    )
    assert code == 0
    summary = read_json(out / "summary.json")
    assert summary["t_sim"] == 2 and summary["t_rh"] == 2
    assert np.isfinite(summary["terminal_t_at_degc"])


# ---------------------------------------------------------------------------
# scc
# ---------------------------------------------------------------------------


def test_scc_baseline_table(scenario_file, tmp_path):
    out = tmp_path / "scc"
    code = run(
        ["scc", "--scenario", scenario_file, "--out", out,
         "--policy", "baseline", "--steps", "0,2"]
    )
    assert code == 0
    rows = read_csv(out / "scc.csv")
    sc = make_scenario()
    assert rows[0] == ["year", "region", "scc_usd_per_tco2"]
    assert len(rows) == 1 + 2 * sc.n_regions
    assert rows[1][:2] == ["2020", "R0"]
    assert rows[1 + sc.n_regions][0] == "2030"
    values = [float(r[2]) for r in rows[1:]]
    assert all(np.isfinite(values))
    summary = read_json(out / "summary.json")
    assert summary["policy"] == "baseline"
    assert summary["steps"] == [0, 2]
    assert len(summary["scc_usd_per_tco2"]) == 2 * sc.n_regions


def test_scc_table_matches_library(scenario_file, tmp_path):
    out = tmp_path / "scc"
    code = run(
        ["scc", "--scenario", scenario_file, "--out", out,
         "--policy", "baseline", "--steps", "6,1,6"]
    )
    assert code == 0
    sc = make_scenario()
    profile = rice_game.ControlProfile.constant(sc.n_regions, sc.horizon, 0.25, 0.0)
    want = rice_game.social_cost_of_co2(sc, sc.x0, profile, [6, 1, 6]).ravel()
    got = [float(r[2]) for r in read_csv(out / "scc.csv")[1:]]
    assert got == want.tolist()


def test_scc_rejects_non_integer_steps(scenario_file, tmp_path, capsys):
    code = run(
        ["scc", "--scenario", scenario_file, "--out", tmp_path / "x",
         "--policy", "baseline", "--steps", "0,two"]
    )
    assert code == 64
    assert "comma-separated integers" in capsys.readouterr().err
