"""Optimizer engine, exact gradients, and window objectives."""

import dataclasses
import operator
import os
import sys
import threading

import numpy as np
import pytest

from conftest import make_scenario, random_profile
from finite_difference import gradient_fd
from scalar_oracle import (
    FloatBackend,
    MpBackend,
    oracle_weighted_welfare,
    scenario_constants,
)

from rice_game.model import (
    ControlProfile,
    ModelBreakdownError,
    ModelDomainError,
    regional_welfare,
    simulate,
    weighted_welfare,
)
from rice_game import solver
from rice_game.noncooperative import _own_solve
from rice_game.solver import (
    SolveOptions,
    WindowProblem,
    _lockstep,
    _member_values,
    _pool_map,
    gradient_adjoint,
    maximize,
)


def pack(controls):
    s = [[float(controls[i, t, 0]) for i in range(controls.shape[0])]
         for t in range(controls.shape[1])]
    mu = [[float(controls[i, t, 1]) for i in range(controls.shape[0])]
          for t in range(controls.shape[1])]
    return s, mu


# ---------------------------------------------------------------------------
# Decision vector
# ---------------------------------------------------------------------------


def test_decision_vector_round_trip(small_scenario, rng):
    sc = small_scenario
    profile = random_profile(sc, 5, rng)
    problem = WindowProblem(sc, sc.weights, sc.x0, 0, profile.controls)
    assert problem.steps == 5
    z = problem.extract(profile.controls)
    assert z.shape == (3 * 5 * 2,)
    # Region-major, then step, then [s, mu].
    assert z[1 * 5 * 2 + 3 * 2 + 1] == profile.controls[1, 3, 1]
    np.testing.assert_array_equal(problem.lower, np.tile(sc.control_lower(), 3 * 5))
    np.testing.assert_array_equal(problem.upper, np.tile(sc.control_upper(), 3 * 5))
    assert problem.lower[0] == sc.s_bounds[0]
    assert problem.upper[1] == sc.mu_bounds[1]
    np.testing.assert_array_equal(problem.embed(z), profile.controls)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_adjoint_matches_package_fd(small_scenario, rng):
    sc = small_scenario
    steps = sc.horizon + 1
    lower = np.tile(sc.control_lower(), 3 * steps)
    upper = np.tile(sc.control_upper(), 3 * steps)

    def objective(x):
        profile = ControlProfile(x.reshape(3, steps, 2))
        traj = simulate(sc.x0, profile, sc)
        return weighted_welfare(traj, profile, sc.weights, sc)

    for _ in range(4):
        profile = random_profile(sc, steps, rng, margin=0.05)
        x = profile.controls.ravel()
        g_adj = gradient_adjoint(profile, sc, sc.weights)
        g_fd, one_sided = gradient_fd(
            objective, x, step=1e-4, lower=lower, upper=upper
        )
        assert not one_sided.any()
        # Float64 central differences carry subtraction noise of order
        # eps * |objective| / step, so small-gradient coordinates get an
        # absolute escape; the mpmath oracle test below pins those tighter.
        mask = np.abs(g_fd) > 1e-7
        err = np.abs(g_adj - g_fd)[mask]
        rel = err / np.abs(g_fd)[mask]
        assert np.all((rel < 1e-5) | (err < 1e-7)), rel.max()


def test_adjoint_matches_high_precision_oracle(small_scenario, rng):
    import mpmath

    sc = small_scenario
    steps = sc.horizon + 1
    consts = scenario_constants(sc)
    profile = random_profile(sc, steps, rng, margin=0.05)
    x = profile.controls.ravel()
    g_adj = gradient_adjoint(profile, sc, sc.weights)
    coords = rng.choice(x.size, size=10, replace=False)
    with mpmath.workdps(40):
        backend = MpBackend(mpmath)
        h = 1e-7
        for j in coords:
            vals = []
            for delta in (h, -h):
                xj = x.copy()
                xj[j] += delta
                s, mu = pack(xj.reshape(3, steps, 2))
                vals.append(
                    oracle_weighted_welfare(consts, s, mu, list(sc.weights), backend)
                )
            g_mp = (vals[0] - vals[1]) / (2 * mpmath.mpf(h))
            assert abs(g_adj[j] - float(g_mp)) <= 1e-9 * max(abs(float(g_mp)), 1e-12)


def test_gradient_adjoint_validation(small_scenario):
    sc = small_scenario
    profile = ControlProfile.constant(3, sc.horizon, 0.25, 0.1)
    with pytest.raises(ModelDomainError):
        gradient_adjoint(profile, sc, np.ones(2))
    with pytest.raises(ModelDomainError):
        gradient_adjoint(ControlProfile.constant(4, sc.horizon, 0.25, 0.1), sc, sc.weights)


def test_gradient_fd_one_sided_at_bounds(small_scenario):
    lower = np.zeros(2)
    upper = np.ones(2)

    def f(x):
        return float(-((x[0] - 0.3) ** 2) - (x[1] - 0.7) ** 2)

    point = np.array([0.0, 0.5])
    g, flagged = gradient_fd(f, point, step=1e-5, lower=lower, upper=upper)
    assert flagged[0] and not flagged[1]
    assert g[0] == pytest.approx(0.6, rel=1e-3, abs=0)
    assert g[1] == pytest.approx(0.4, rel=1e-4, abs=0)
    with pytest.raises(ModelDomainError):
        gradient_fd(f, point, step=1e-5, lower=np.array([0.0, 0.5]),
                    upper=np.array([0.0, 0.5]))
    with pytest.raises(ModelDomainError):
        gradient_fd(f, point, step=0.0)


def test_gradient_fd_accepts_value_gradient_pairs():
    def f(x):
        return float(-(x[0] ** 2)), np.array([-2.0 * x[0]])

    g, _ = gradient_fd(f, np.array([0.25]), step=1e-6)
    assert g[0] == pytest.approx(-0.5, rel=1e-6, abs=0)


# ---------------------------------------------------------------------------
# maximize
# ---------------------------------------------------------------------------


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def objective(x):
        d = x - center
        return float(-(d @ d) - 1.0), -2.0 * d

    return objective


def test_maximize_reaches_interior_optimum():
    obj = quadratic([0.4, 0.6, 0.5])
    lo, hi = np.zeros(3), np.ones(3)
    report = maximize(obj, lo, hi, np.full(3, 0.1), SolveOptions())
    np.testing.assert_allclose(report.x, [0.4, 0.6, 0.5], atol=1e-7)
    assert report.objective == pytest.approx(-1.0, rel=1e-12, abs=0)
    assert report.termination in {
        "gradient",
        "objective-change",
        "max-iter",
        "line-search-failure",
    }
    assert np.all(np.diff(report.objective_log) >= 0.0)
    assert report.n_evaluations > 0


def test_maximize_clips_to_bounds():
    obj = quadratic([1.4, -0.2, 0.5])
    lo, hi = np.zeros(3), np.ones(3)
    report = maximize(obj, lo, hi, np.full(3, 0.5), SolveOptions())
    np.testing.assert_allclose(report.x, [1.0, 0.0, 0.5], atol=1e-7)


def test_maximize_deterministic_and_multistart():
    obj = quadratic([0.25, 0.75])
    lo, hi = np.zeros(2), np.ones(2)
    opts = SolveOptions(multistart=4, seed=11)
    a = maximize(obj, lo, hi, np.full(2, 0.9), opts)
    b = maximize(obj, lo, hi, np.full(2, 0.9), opts)
    np.testing.assert_array_equal(a.x, b.x)
    assert a.start_index == b.start_index
    assert len(a.start_objectives) == 4
    assert a.objective == pytest.approx(max(a.start_objectives), rel=1e-12, abs=0)


def test_maximize_validation():
    obj = quadratic([0.5])
    with pytest.raises(ModelDomainError):
        maximize(obj, np.zeros(2), np.ones(1), np.zeros(1), SolveOptions())
    with pytest.raises(ModelDomainError):
        maximize(obj, np.array([1.0]), np.array([0.0]), np.array([0.5]),
                 SolveOptions())
    with pytest.raises(ModelDomainError):
        maximize(obj, np.zeros(1), np.ones(1), np.array([2.0]), SolveOptions())

    def broken(x):
        return float("nan"), np.zeros(1)

    with pytest.raises(ModelDomainError):
        maximize(broken, np.zeros(1), np.ones(1), np.array([0.5]), SolveOptions())


def test_maximize_never_returns_below_init():
    # An objective whose reported gradient points the wrong way: the engine
    # may fail to improve, but the report must keep the initial point.
    center = np.array([0.5])

    def lying(x):
        d = x - center
        return float(-(d @ d)), 2.0 * d

    init = np.array([0.9])
    report = maximize(lying, np.zeros(1), np.ones(1), init, SolveOptions())
    assert report.objective >= -(0.4**2) - 1e-12
    assert np.all(report.x >= 0.0) and np.all(report.x <= 1.0)


def breaks_above(limit, center):
    def partial(x):
        if x[0] > limit:
            raise ModelBreakdownError("diverged", step=0, region=None)
        d = x[0] - center
        return float(-(d * d)), np.array([-2.0 * d])

    return partial


def test_maximize_survives_breakdown_regions():
    report = maximize(
        breaks_above(0.6, 0.55), np.zeros(1), np.ones(1), np.array([0.2]), SolveOptions()
    )
    assert report.x[0] == pytest.approx(0.55, abs=1e-6)


@pytest.mark.parametrize(
    "objective", [quadratic([0.4]), breaks_above(0.6, 0.55)], ids=["smooth", "breakdown"]
)
def test_maximize_evaluates_each_point_once(objective):
    # The start point is evaluated for the ascent guarantee and is then
    # L-BFGS-B's first call; the repeat is answered from memory.
    calls = []

    def counting(x):
        calls.append(x.copy())
        return objective(x)

    report = maximize(
        counting, np.zeros(1), np.ones(1), np.array([0.2]), SolveOptions(multistart=1)
    )
    assert len(calls) == report.n_evaluations


def test_maximize_multistart_escapes_poor_basin():
    # Piecewise objective with a flat shelf around the init and a better
    # peak elsewhere; random restarts must find the peak. The shelf ends
    # within the multistart's jitter of the box (a tenth of its width).
    def shelf(x):
        v = x[0]
        base = -((v - 0.9) ** 2)
        if v < 0.1:
            return -0.5, np.array([0.0])
        return float(base), np.array([-2.0 * (v - 0.9)])

    opts = SolveOptions(multistart=8, seed=3)
    report = maximize(shelf, np.zeros(1), np.ones(1), np.array([0.05]), opts)
    assert report.objective > -1e-6
    assert report.start_index > 0


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "threads,tasks,pools", [(5000, 3, [3]), (2, 3, [2]), (1, 3, []), (5000, 1, [])]
)
def test_pool_starts_no_more_workers_than_tasks(monkeypatch, threads, tasks, pools):
    started = []

    class RecordingPool:
        """Runs tasks in this process and records the pool size asked for."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(solver, "ProcessPoolExecutor", RecordingPool)
    args = [(i, 1) for i in range(tasks)]
    assert _pool_map(operator.add, args, threads) == list(range(1, tasks + 1))
    assert started == pools


# ---------------------------------------------------------------------------
# Window problems
# ---------------------------------------------------------------------------


def test_window_problem_matches_oracle(small_scenario, rng):
    sc = small_scenario
    consts = scenario_constants(sc)
    steps, t0 = 4, 2
    fixed = random_profile(sc, steps, rng).controls
    problem = WindowProblem(sc, sc.weights, sc.x0, t0, fixed, free_regions=[1])
    z = problem.extract(fixed)
    assert z.shape == (steps * 2,)
    full = problem.embed(z)
    np.testing.assert_array_equal(full, fixed)

    f_call, grad = problem(z)
    s, mu = pack(fixed)
    expect = oracle_weighted_welfare(
        consts, s, mu, list(sc.weights), FloatBackend(), t0=t0
    )
    assert f_call == pytest.approx(expect, rel=1e-12, abs=0)
    assert grad.shape == (steps * 2,)


def test_window_problem_gradient_matches_fd(small_scenario, rng):
    sc = small_scenario
    steps = 4
    fixed = random_profile(sc, steps, rng, margin=0.05).controls
    problem = WindowProblem(sc, sc.weights, sc.x0, 1, fixed, free_regions=[0, 2])
    z = problem.extract(fixed)
    _, grad = problem(z)
    g_fd, _ = gradient_fd(
        problem, z, step=1e-5, lower=problem.lower, upper=problem.upper
    )
    mask = np.abs(g_fd) > 1e-7
    rel = np.abs(grad - g_fd)[mask] / np.abs(g_fd)[mask]
    assert rel.max() < 1e-6


def test_window_problem_validation(small_scenario):
    sc = small_scenario

    def window(steps):
        return np.zeros((sc.n_regions, steps, 2))

    for shape in ((2, 5, 2), (3, 5, 3), (3, 10), (30,)):
        with pytest.raises(ModelDomainError):
            WindowProblem(sc, sc.weights, sc.x0, 0, np.zeros(shape))
    # The window must lie inside the exogenous paths: steps t0..t0+steps-1.
    with pytest.raises(ModelDomainError):
        WindowProblem(sc, sc.weights, sc.x0, sc.exo.length - 1, window(2))
    with pytest.raises(ModelDomainError):
        WindowProblem(
            sc, sc.weights, sc.x0, sc.exo.length - sc.horizon, window(sc.horizon + 1)
        )
    with pytest.raises(ModelDomainError):
        WindowProblem(sc, sc.weights, sc.x0, -1, window(2))
    last = WindowProblem(sc, sc.weights, sc.x0, sc.exo.length - 2, window(2))
    assert last.steps == 2


def test_window_problem_solve_stays_in_box(small_scenario, rng):
    sc = small_scenario
    steps = sc.horizon + 1
    controls = random_profile(sc, steps, rng).controls
    problem = WindowProblem(sc, sc.weights, sc.x0, 0, controls)
    init = controls.ravel()
    report = maximize(problem, problem.lower, problem.upper, init, SolveOptions())
    assert np.all(report.x >= problem.lower - 1e-12)
    assert np.all(report.x <= problem.upper + 1e-12)
    f_init = problem(init)[0]
    assert report.initial_objective == f_init
    assert report.objective >= f_init - 1e-9 * abs(f_init)


def test_window_problem_frozen_regions_unchanged(small_scenario, rng):
    sc = small_scenario
    fixed = random_profile(sc, 5, rng, margin=0.05).controls
    before = regional_welfare(simulate(sc.x0, ControlProfile(fixed), sc), sc)[2]
    for pin_mu in (False, True):
        full, report = _own_solve(sc, 2, sc.x0, 0, fixed, SolveOptions(), pin_mu=pin_mu)
        np.testing.assert_array_equal(full[[0, 1]], fixed[[0, 1]])
        if pin_mu:
            np.testing.assert_array_equal(full[2, :, 1], fixed[2, :, 1])
        assert not np.array_equal(full[2, :, 0], fixed[2, :, 0])
        after = regional_welfare(simulate(sc.x0, ControlProfile(full), sc), sc)[2]
        assert report.initial_objective == pytest.approx(before, rel=1e-12)
        assert report.objective == pytest.approx(after, rel=1e-12)
        assert report.objective >= report.initial_objective
        assert after >= before


# ---------------------------------------------------------------------------
# Lockstep solves
# ---------------------------------------------------------------------------


def window_problems(scenario, rng, t0=1, steps=4, weights=None, cls=WindowProblem):
    """One single-region window problem per region, from random controls.

    Row i of ``weights`` (default: the identity) weighs region i's problem.
    """
    n = scenario.n_regions
    weights = np.eye(n) if weights is None else weights
    controls = random_profile(scenario, steps, rng, margin=0.1).controls
    x0 = simulate(scenario.x0, ControlProfile(controls[:, :t0]), scenario).state(t0)
    return [cls(scenario, weights[i], x0, t0, controls, free_regions=[i]) for i in range(n)]


def lockstep(problems, options=SolveOptions()):
    inits = [p.extract(p.controls) for p in problems]
    return _lockstep(problems, [p.lower for p in problems], [p.upper for p in problems],
                     inits, options)


def serial(problems, options=SolveOptions()):
    """``maximize`` on each problem in turn, every evaluation a batch of one."""
    return [
        maximize(lambda z, p=p: _member_values([p], [z])[0], p.lower, p.upper,
                 p.extract(p.controls), options)
        for p in problems
    ]


def assert_same_reports(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.x.tobytes() == b.x.tobytes()
        assert a.objective_log.tobytes() == b.objective_log.tobytes()
        assert (a.objective, a.initial_objective, a.iterations, a.n_evaluations,
                a.termination) == (b.objective, b.initial_objective, b.iterations,
                                   b.n_evaluations, b.termination)


def test_member_values_match_window_problem_calls(default_scenario, rng):
    problems = window_problems(default_scenario, rng, t0=3, steps=5)
    points = [p.extract(p.controls) + 0.01 for p in problems]
    for (f, g), p, z in zip(_member_values(problems, points), problems, points, strict=True):
        want_f, want_g = p(z)
        assert f == pytest.approx(want_f, rel=1e-13, abs=0)
        np.testing.assert_allclose(g, want_g, rtol=1e-13, atol=0)


def test_lockstep_reports_equal_serial_solves(default_scenario, rng):
    problems = window_problems(default_scenario, rng, t0=3, steps=5)
    reports = lockstep(problems)
    assert_same_reports(reports, serial(problems))
    assert len({r.n_evaluations for r in reports}) > 1  # members end in different rounds


def test_lockstep_does_not_depend_on_thread_switching(rng):
    problems = window_problems(make_scenario(n=6), rng, steps=3)
    want = lockstep(problems)
    got = []
    runner = threading.Thread(target=lambda: got.extend(lockstep(problems)), daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert_same_reports(got, want)


def test_lockstep_penalizes_only_the_member_that_breaks(rng):
    # Region 0's backstop makes lambda <= 0 near mu = 1, and its problem
    # minimizes its welfare, so its line searches try abatement that breaks
    # the model. Its siblings must not notice.
    sc = make_scenario()
    regions = list(sc.regions)
    regions[0] = dataclasses.replace(regions[0], pb=8000.0)
    sc = dataclasses.replace(sc, regions=regions)
    weights = np.diag([-1.0, 1.0, 1.0])
    problems = window_problems(sc, rng, weights=weights)
    broke = []

    def counted(z, p=problems[0]):
        try:
            return _member_values([p], [z])[0]
        except ModelBreakdownError:
            broke.append(z)
            raise

    p0 = problems[0]
    maximize(counted, p0.lower, p0.upper, p0.extract(p0.controls), SolveOptions())
    assert broke
    reports = lockstep(problems)
    assert_same_reports(reports, serial(problems))
    assert_same_reports(reports[1:], lockstep(problems[1:]))


class ProbedProblem(WindowProblem):
    """Records the live thread count and the CPUs it may run on whenever it
    is embedded, and raises on its embedding number ``fail_at``, if set."""

    fail_at = None

    def embed(self, z):
        self.alive = max(getattr(self, "alive", 0), threading.active_count())
        if hasattr(os, "sched_getaffinity"):
            self.cpus = getattr(self, "cpus", []) + [os.sched_getaffinity(0)]
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == self.fail_at:
            raise RuntimeError("evaluation failed")
        return super().embed(z)


def test_lockstep_runs_one_thread_per_member(rng):
    before = threading.active_count()
    problems = window_problems(make_scenario(n=5), rng, cls=ProbedProblem)
    lockstep(problems)
    assert max(p.alive for p in problems) <= before + len(problems)
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="threads cannot be pinned")
def test_lockstep_runs_on_one_cpu_and_restores_the_callers(rng):
    caller = os.sched_getaffinity(0)
    problems = window_problems(make_scenario(n=4), rng, cls=ProbedProblem)
    lockstep(problems)
    # The calling thread answers every round, pinned to one CPU.
    assert len({frozenset(cpus) for p in problems for cpus in p.cpus}) == 1
    assert len(problems[0].cpus[0]) == 1
    assert os.sched_getaffinity(0) == caller
    with pytest.raises(RuntimeError):
        problems[1].fail_at = problems[1].calls + 2
        lockstep(problems)
    assert os.sched_getaffinity(0) == caller


def test_lockstep_raises_only_after_every_thread_ended(rng):
    before = threading.active_count()
    problems = window_problems(make_scenario(n=4), rng, cls=ProbedProblem)
    problems[2].fail_at = 3
    with pytest.raises(RuntimeError, match="evaluation failed"):
        lockstep(problems)
    assert threading.active_count() == before
    # An error of a member's own solve, before any evaluation.
    problems = window_problems(make_scenario(n=4), rng)
    inits = [p.extract(p.controls) for p in problems]
    inits[1] = inits[1] + 2.0
    with pytest.raises(ModelDomainError, match="init must lie within the bounds"):
        _lockstep(problems, [p.lower for p in problems], [p.upper for p in problems],
                  inits, SolveOptions())
    assert threading.active_count() == before
