"""Tests of the benchmark itself (not of rice_game).

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import rice_game as rg  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def scenario():
    return rg.build_default_scenario()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(scenario, name):
    def digest(seed):
        wl = workloads.make_workloads()[name]
        return workloads.inputs_digest(wl.inputs(scenario, seed))

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def test_rhfa_starts_from_the_nash_start(scenario):
    table = workloads.make_workloads()
    start = table["nash"].inputs(scenario, 3)["start"]
    np.testing.assert_array_equal(table["rhfa"].inputs(scenario, 3)["initial"], start[:, 0, :])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_seed_reaches_a_recorded_reference(name):
    reference = workloads.load_reference()[name]
    assert set(reference) == {str(seed) for seed in range(workloads.RECORDED_SEEDS)}


def _bindings():
    sites = [rg, *spans.MODULES.values(), rg.solver.WindowProblem]
    return {(site.__name__, key): value for site in sites for key, value in vars(site).items()}


def test_tracer_restores_every_wrapped_name(scenario, tmp_path):
    before = _bindings()
    profile = rg.ControlProfile.constant(scenario.n_regions, scenario.horizon, 0.25, 0.1)
    untraced = rg.simulate(scenario.x0, profile, scenario)
    tracer = spans.Tracer("test")
    with tracer:
        assert rg.simulate is not before[("rice_game", "simulate")]
        assert rg.noncooperative.maximize is not before[("rice_game.noncooperative", "maximize")]
        assert rg.cli.write_scc_csv is not before[("rice_game.cli", "write_scc_csv")]
        traced = tracer.job(rg.simulate, scenario.x0, profile, scenario)
        assert rg.cli.main(["validate"]) == 0
    assert [s[0] for s in tracer.spans[:2]] == [spans.ROOT, "model.simulate"]
    assert "calibration.build_default_scenario" in {s[0] for s in tracer.spans}
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    count = len(tracer.spans)
    again = rg.simulate(scenario.x0, profile, scenario)
    assert len(tracer.spans) == count
    np.testing.assert_array_equal(traced.states, untraced.states)
    np.testing.assert_array_equal(again.states, untraced.states)


def test_tracer_restores_names_when_the_job_raises(scenario):
    before = _bindings()
    with pytest.raises(rg.ModelDomainError):
        with spans.Tracer("test") as tracer:
            tracer.job(rg.best_response, scenario, -1, None)
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert tracer.spans[1][4] == {"error": "ModelDomainError"}


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span(spans.ROOT, 0.0, 10.0, -1),
        _span("cooperative.solve_swm", 1.0, 9.0, 0),
        _span("solver.maximize", 2.0, 8.0, 1, {"iterations": 4, "evaluations": 6,
                                              "termination": "gradient"}),
        _span("solver.objective", 2.5, 3.5, 2, {"steps": 10}),
        _span("solver.objective", 4.0, 7.0, 2, {"steps": 10}),
        _span("model.simulate", 8.5, 9.0, 1, {"steps": 5}),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 1.5, 2.0, 1.0, 3.0, 0.5])
    metrics = spans.layer_metrics(tree, jobs=1, untraced_wall=[9.0])
    assert metrics["layer.bench.self_s"] == pytest.approx(2.0)
    assert metrics["layer.cooperative.self_s"] == pytest.approx(1.5)
    assert metrics["layer.solver.self_s"] == pytest.approx(6.0)
    assert metrics["layer.model.self_s"] == pytest.approx(0.5)
    layers = sum(metrics[f"layer.{layer}.self_s"] for layer in ("bench",) + spans.LAYERS)
    assert layers == pytest.approx(metrics["trace.wall_s"]) == pytest.approx(10.0)
    assert metrics["trace.overhead_s"] == pytest.approx(1.0)
    assert metrics["solver.objective.calls"] == 2
    assert metrics["solver.objective.us_per_step"] == pytest.approx(4.0 / 20 * 1e6)
    assert metrics["solver.maximize.self_s"] == pytest.approx(2.0)
    assert metrics["solver.maximize.evals_per_iter"] == pytest.approx(1.5)
    assert metrics["solver.maximize.term.gradient"] == 1
    assert metrics["model.simulate.us_per_step"] == pytest.approx(0.5 / 5 * 1e6)
    assert set(metrics) == set(spans.METRICS)


def test_self_time_clips_overlapping_children():
    tree = [
        _span("a.x", 0.0, 4.0, -1),
        _span("b.y", 1.0, 3.0, 0),
        _span("b.z", 2.0, 5.0, 0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


class _Fake:
    """A workload whose check fails on odd inputs and whose job may raise."""

    def job(self, scenario, inp, workdir):
        if inp["raise"]:
            raise rg.ModelDomainError("deliberate")
        return inp["k"]

    def check(self, scenario, inp, out, workdir):
        return ["deliberately wrong"] if out % 2 else []

    def summary(self, out, workdir):
        return {"k": out}

    def compare(self, got, ref):
        return [] if got == ref else ["differs from reference"]


def test_failing_checks_and_raising_jobs_count_as_failed():
    fake = _Fake()
    assert run.run_job(fake, None, {"k": 2, "raise": False}, {"k": 2}).problems == []
    assert run.run_job(fake, None, {"k": 1, "raise": False}, {"k": 1}).problems == [
        "deliberately wrong"]
    assert run.run_job(fake, None, {"k": 2, "raise": False}, {"k": 4}).problems == [
        "differs from reference"]
    assert run.run_job(fake, None, {"k": 2, "raise": True}, {"k": 2}).problems == [
        "job raised ModelDomainError: deliberate"]


def test_a_run_repeats_its_job_for_the_time_given():
    jobs = run.measure(_Fake(), None, {"k": 1, "raise": False}, seconds=0.2, reference=None)
    assert len(jobs) > 1
    assert all(job.problems == ["deliberately wrong"] for job in jobs)


def test_scc_check_rejects_a_non_finite_row(scenario, tmp_path):
    wl = workloads.make_workloads()["scc"]
    inp = wl.inputs(scenario, 0)
    steps = ",".join(str(t) for t in inp["steps"][:1])
    args = ["--threads", "1", "--out"]
    assert rg.cli.main(["scc", "--policy", "baseline", "--steps", steps, *args,
                        str(tmp_path / "scc")]) == 0
    assert rg.cli.main(["simulate", *args, str(tmp_path / "simulate")]) == 0
    problems = wl.check(scenario, inp, (0, 0), tmp_path)
    assert problems == [f"scc.csv has 12 rows, expected {workloads.SCC_STEPS * 12}"]
    csv_path = tmp_path / "scc" / "scc.csv"
    text = csv_path.read_text().splitlines()
    year, region, _ = text[1].split(",")
    csv_path.write_text("\n".join([text[0], f"{year},{region},nan", *text[2:]]) + "\n")
    assert "scc.csv holds a non-finite value" in wl.check(scenario, inp, (0, 0), tmp_path)
    assert wl.check(scenario, inp, (0, 2), tmp_path) == ["simulate exited with code 2"]


def test_reference_comparison_flags_a_moved_output():
    wl = workloads.make_workloads()["swm"]
    ref = workloads.load_reference()["swm"]["0"]
    assert wl.compare(dict(ref), ref) == []
    assert len(ref["welfare"]) == len(ref["terminal_t_at"]) == workloads.SWM_STARTS
    welfare = list(ref["welfare"])
    welfare[-1] *= 1 + 10 * workloads.REF_SWM_WELFARE_RTOL
    assert len(wl.compare(dict(ref, welfare=welfare), ref)) == 1
    assert not any(math.isnan(t) for t in ref["terminal_t_at"])


def test_speed_probe_samples_and_restores_the_alarm_handler():
    import signal
    import time

    import probe

    before = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe() as speed:
        end = time.perf_counter() + 5 * probe.INTERVAL
        while time.perf_counter() < end:
            probe.kernel(1)
    assert len(speed.samples) >= 2
    assert speed.mean() > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
