"""Optimizer engine, exact gradients, and window objectives."""

import dataclasses
import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy as np
import pytest

from conftest import linear_damage_scenario, make_scenario, random_profile
from finite_difference import gradient_fd
from minimize_oracle import maximize_with_minimize
from scalar_oracle import (
    FloatBackend,
    MpBackend,
    oracle_weighted_welfare,
    scenario_constants,
)

from rice_game import solver
from rice_game.model import (
    ControlProfile,
    ModelBreakdownError,
    ModelDomainError,
    regional_welfare,
    simulate,
    weighted_welfare,
)
from rice_game.noncooperative import _best_responses, _own_problem
from rice_game.solver import (
    SolveOptions,
    WindowProblem,
    _lbfgsb,
    _load_lbfgsb,
    _lockstep,
    _curvature_scale,
    _member_values,
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
    # The second scenario takes the linear damage term (a1 != 0).
    for sc in (small_scenario, linear_damage_scenario()):
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

    # The second scenario takes the linear damage term (a1 != 0).
    for sc in (small_scenario, linear_damage_scenario()):
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
    report = maximize(obj, lo, hi, np.full(3, 0.1))
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
    report = maximize(obj, lo, hi, np.full(3, 0.5))
    np.testing.assert_allclose(report.x, [1.0, 0.0, 0.5], atol=1e-7)


def test_maximize_deterministic_and_multistart():
    obj = quadratic([0.25, 0.75])
    lo, hi = np.zeros(2), np.ones(2)
    a = maximize(obj, lo, hi, np.full(2, 0.9))
    b = maximize(obj, lo, hi, np.full(2, 0.9))
    assert_same_reports([a], [b])
    # One start is the only value, and there is no seed.
    assert SolveOptions() == SolveOptions(multistart=1)
    for starts in (0, 2, 4):
        with pytest.raises(ModelDomainError, match="multistart was removed"):
            SolveOptions(multistart=starts)
    with pytest.raises(TypeError):
        SolveOptions(seed=3)


def test_maximize_validation():
    obj = quadratic([0.5])
    with pytest.raises(ModelDomainError):
        maximize(obj, np.zeros(2), np.ones(1), np.zeros(1))
    with pytest.raises(ModelDomainError):
        maximize(obj, np.array([1.0]), np.array([0.0]), np.array([0.5]))
    with pytest.raises(ModelDomainError):
        maximize(obj, np.zeros(1), np.ones(1), np.array([2.0]))
    with pytest.raises(ModelDomainError, match="flat"):
        maximize(obj, np.zeros((1, 1)), np.ones((1, 1)), np.full((1, 1), 0.5))

    def broken(x):
        return float("nan"), np.zeros(1)

    with pytest.raises(ModelDomainError):
        maximize(broken, np.zeros(1), np.ones(1), np.array([0.5]))


def test_maximize_never_returns_below_init():
    # An objective whose reported gradient points the wrong way: the engine
    # may fail to improve, but the report must keep the initial point.
    center = np.array([0.5])

    def lying(x):
        d = x - center
        return float(-(d @ d)), 2.0 * d

    init = np.array([0.9])
    report = maximize(lying, np.zeros(1), np.ones(1), init)
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
        breaks_above(0.6, 0.55), np.zeros(1), np.ones(1), np.array([0.2])
    )
    assert report.x[0] == pytest.approx(0.55, abs=1e-6)


@pytest.mark.parametrize(
    "objective", [quadratic([0.4]), breaks_above(0.6, 0.55)], ids=["smooth", "breakdown"]
)
def test_maximize_evaluates_each_point_once(objective):
    # The start point is evaluated for the ascent guarantee and is then
    # L-BFGS-B's first call; it is evaluated once.
    calls = []

    def counting(x):
        calls.append(x.copy())
        return objective(x)

    report = maximize(
        counting, np.zeros(1), np.ones(1), np.array([0.2])
    )
    assert len(calls) == report.n_evaluations


def rosenbrock(x):
    """The negated Rosenbrock function and its gradient."""
    r, q = x[1:] - x[:-1] ** 2, 1.0 - x[:-1]
    g = np.zeros_like(x)
    g[:-1] = 400.0 * x[:-1] * r + 2.0 * q
    g[1:] -= 200.0 * r
    return -float(np.sum(100.0 * r**2 + q**2)), g


def kinked(x):
    # |d|^1.2 has an unbounded curvature at 0, so the quasi-Newton steps
    # stall on the relative-change test before the gradient one.
    d = x - 0.3
    return float(-np.sum(np.abs(d) ** 1.2) - 1.0), -1.2 * np.sign(d) * np.abs(d) ** 0.2


def wall(x):
    # Ascends toward x[0] = 1 but breaks the model past 0.6.
    if x[0] > 0.6:
        raise ModelBreakdownError("diverged", step=0, region=None)
    return float(x[0] ** 2 + 0.1 * x[1]), np.array([2.0 * x[0], 0.1])


#: Each case: objective, bounds, init, and the solver caps patched for it.
ORACLE_CASES = {
    "gradient": (quadratic([0.4, 0.6, 0.5]), np.zeros(3), np.ones(3), np.full(3, 0.1), {}),
    "objective-change": (kinked, np.zeros(3), np.ones(3), np.full(3, 0.9), {}),
    "max-iter": (rosenbrock, np.full(4, -2.0), np.full(4, 2.0), np.full(4, -1.0),
                 {"_MAX_ITER": 3}),
    "max-fun": (rosenbrock, np.full(4, -2.0), np.full(4, 2.0), np.full(4, -1.0),
                {"_MAX_FUN": 8}),
    "line-search-failure": (wall, np.zeros(2), np.ones(2), np.array([0.2, 0.3]), {}),
    "pinned": (rosenbrock, np.array([-2.0, 0.5, -2.0, -2.0]), np.array([2.0, 0.5, 2.0, 2.0]),
               np.array([-1.0, 0.5, -1.0, 0.3]), {}),
}


def assert_same_reports(got, want):
    """Each pair of reports holds the same types and bytes in every field."""
    for a, b in zip(got, want, strict=True):
        for name in ("x", "objective", "initial_objective", "objective_log"):
            u, v = getattr(a, name), getattr(b, name)
            assert type(u) is type(v) and np.asarray(u).tobytes() == np.asarray(v).tobytes(), name
        assert (a.iterations, a.n_evaluations, a.termination) == (
            b.iterations, b.n_evaluations, b.termination)


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_maximize_equals_the_minimize_oracle(case, monkeypatch):
    objective, lower, upper, init, caps = ORACLE_CASES[case]
    for name, value in caps.items():
        monkeypatch.setattr(solver, name, value)
    got = maximize(objective, lower, upper, init)
    assert_same_reports([got], [maximize_with_minimize(objective, lower, upper, init)])
    # The reported objective is the objective at the reported point.
    assert got.objective == objective(got.x)[0]
    if case in ("gradient", "objective-change", "max-iter", "line-search-failure"):
        assert got.termination == case
    if case == "max-fun":
        # The evaluation cap ends the run (uncapped, it takes 44 evaluations
        # and 37 iterations) and reports as the iteration cap does.
        assert got.termination == "max-iter"
        assert got.n_evaluations > 8 > got.iterations


def test_setulb_takes_the_arguments_the_port_passes():
    # The solver's driver loop passes these 17 arguments to scipy's C
    # L-BFGS-B (scipy >= 1.15); another signature is an error to see here.
    args = "m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task"
    assert _lbfgsb.setulb.__doc__.startswith(f"setulb({args})")


def test_lbfgsb_is_the_file_scipy_optimize_imports():
    # The solver loads the extension from its file, not through the package;
    # it must still be the build scipy.optimize itself would import.
    spec = importlib.util.find_spec("scipy.optimize._lbfgsb")
    assert os.path.samefile(_lbfgsb.__file__, spec.origin)


@pytest.mark.parametrize(
    "doc",
    [
        # scipy 1.14's f2py wrapper: the character task of L-BFGS-B 3.0.
        "x,f,g,wa,iwa,task,csave,lsave,isave,dsave = setulb(m,x,l,u,nbd,f,g,factr,"
        "pgtol,wa,iwa,task,iprint,csave,lsave,isave,dsave,maxls)",
        None,
    ],
    ids=["character-task", "no-docstring"],
)
def test_lbfgsb_loader_rejects_another_setulb(monkeypatch, tmp_path, doc):
    # A scipy whose setulb lacks the integer-task call the port makes is an
    # ImportError at import time, not a wrong call inside the first solve.
    (tmp_path / "optimize").mkdir()
    (tmp_path / "optimize" / "_lbfgsb.py").write_text(
        f"def setulb(*args):\n    pass\n\n\nsetulb.__doc__ = {doc!r}\n"
    )
    monkeypatch.setattr(solver.scipy, "__path__", [str(tmp_path)])
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # the fake is rewritten below
    with pytest.raises(ImportError, match=r"maxls,ln_task\)") as info:
        _load_lbfgsb()
    assert info.value.name == "scipy.optimize._lbfgsb"
    # The same fake with the call the port makes loads.
    (tmp_path / "optimize" / "_lbfgsb.py").write_text(
        f"def setulb(*args):\n    pass\n\n\nsetulb.__doc__ = {_lbfgsb.setulb.__doc__!r}\n"
    )
    assert _load_lbfgsb().setulb.__doc__ == _lbfgsb.setulb.__doc__


def test_lbfgsb_loader_names_the_module_it_cannot_find(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *args: None)
    with pytest.raises(ImportError, match=r"scipy\.optimize\._lbfgsb") as info:
        _load_lbfgsb()
    assert info.value.name == "scipy.optimize._lbfgsb"


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


def test_curvature_scale_evens_out_the_abatement_cost(small_scenario, rng):
    # Region 2 has sigma = 0, which validation would reject: theta1 = 0.
    # Region 1 has zero weight, so its controls carry no curvature at all.
    sigma = small_scenario.exo.sigma.copy()
    sigma[:, 2] = 0.0
    exo = dataclasses.replace(small_scenario.exo, sigma=sigma)
    sc = dataclasses.replace(small_scenario, exo=exo, weights=np.array([1.0, 0.0, 0.25]))
    steps, t0, free = 30, 3, [2, 0, 1]
    problem = WindowProblem(sc, sc.weights, sc.x0, t0, random_profile(sc, steps, rng).controls,
                            free_regions=free)
    d = _curvature_scale(problem)
    assert np.all(np.frexp(d)[0] == 0.5)  # powers of two, so x = d * (x / d)
    d = d.reshape(3, steps, 2)
    assert np.all(d[2] == 1.0) and np.all(d[0, :, 1] == 1.0)
    # The log-utility curvature w * disc * L of every control, times theta1
    # on each mu. Scaled, each lies within a factor of 2 of its column's
    # largest; unscaled, each column spans a factor of 4 or more. Rows 0
    # and 1 are regions 2 and 0, the rows whose factor is positive.
    window = slice(t0, t0 + steps)
    u = sc.weights[free, None] * (sc._disc[window] * sc.exo.labor[window])[:, free].T
    for column, factor, rows in ((0, u, [0, 1]), (1, u * sc._theta1[window, free].T, [1])):
        factor = factor[rows]
        curvature = d[rows, :, column] ** 2 * factor / factor.max()
        assert np.all((curvature >= 0.5) & (curvature <= 2.0))
        assert factor.max() >= 4.0 * factor.min()


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
    for shape in ((2, 5, 2), (3, 5, 3), (3, 10), (30,)):
        with pytest.raises(ModelDomainError):
            WindowProblem(sc, sc.weights, sc.x0, 0, np.zeros(shape))


def test_window_problem_rejects_an_uncovered_window(small_scenario):
    # The window must lie inside the exogenous paths: steps t0..t0+steps-1.
    sc = small_scenario
    length = sc.exo.length

    def window(steps):
        return np.zeros((sc.n_regions, steps, 2))

    for t0, steps in [(length - 1, 2), (length - sc.horizon, sc.horizon + 1), (-1, 2)]:
        message = (f"^exogenous paths do not cover steps \\[{t0}, {t0 + steps - 1}\\]"
                   f" \\(length {length}\\)$")
        with pytest.raises(ModelDomainError, match=message):
            WindowProblem(sc, sc.weights, sc.x0, t0, window(steps))
    last = WindowProblem(sc, sc.weights, sc.x0, length - 2, window(2))
    assert last.steps == 2


def test_window_problem_solve_stays_in_box(small_scenario, rng):
    sc = small_scenario
    steps = sc.horizon + 1
    controls = random_profile(sc, steps, rng).controls
    problem = WindowProblem(sc, sc.weights, sc.x0, 0, controls)
    init = controls.ravel()
    report = maximize(problem, problem.lower, problem.upper, init)
    assert np.all(report.x >= problem.lower - 1e-12)
    assert np.all(report.x <= problem.upper + 1e-12)
    f_init = problem(init)[0]
    assert report.initial_objective == f_init
    assert report.objective >= f_init - 1e-9 * abs(f_init)


def test_window_problem_frozen_regions_unchanged(small_scenario, rng):
    sc = small_scenario
    fixed = random_profile(sc, 5, rng, margin=0.05).controls
    before = regional_welfare(simulate(sc.x0, ControlProfile(fixed), sc), sc)[2]
    problem, lower, upper, init = _own_problem(sc, 2, sc.x0, 0, fixed)
    report = maximize(problem, lower, upper, init)
    full = problem.embed(report.x)
    np.testing.assert_array_equal(full[[0, 1]], fixed[[0, 1]])
    assert not np.array_equal(full[2, :, 0], fixed[2, :, 0])
    after = regional_welfare(simulate(sc.x0, ControlProfile(full), sc), sc)[2]
    assert report.initial_objective == pytest.approx(before, rel=1e-12)
    assert report.objective == pytest.approx(after, rel=1e-12)
    assert report.objective >= report.initial_objective
    assert after >= before


# ---------------------------------------------------------------------------
# Lockstep solves
# ---------------------------------------------------------------------------


def window_problems(scenario, rng, t0=1, steps=4, weights=None):
    """One single-region window problem per region, from random controls.

    Row i of ``weights`` (default: the identity) weighs region i's problem.
    """
    n = scenario.n_regions
    weights = np.eye(n) if weights is None else weights
    controls = random_profile(scenario, steps, rng, margin=0.1).controls
    x0 = scenario.x0
    if t0:
        x0 = simulate(scenario.x0, ControlProfile(controls[:, :t0]), scenario).state(t0)
    return [WindowProblem(scenario, weights[i], x0, t0, controls, free_regions=[i])
            for i in range(n)]


def lockstep(problems):
    inits = [p.extract(p.controls) for p in problems]
    return _lockstep(problems, [p.lower for p in problems], [p.upper for p in problems], inits)


def serial(problems):
    """``maximize`` on each problem in turn, every evaluation a batch of one."""
    return [
        maximize(lambda z, p=p: _member_values([p], [z])[0], p.lower, p.upper,
                 p.extract(p.controls))
        for p in problems
    ]


def test_maximize_equals_the_minimize_oracle_on_window_problems(default_scenario, rng):
    # Own-welfare window problems of the packaged scenario; region 1's mu
    # pinned by equal bounds.
    sc = default_scenario
    problems = window_problems(sc, rng, t0=3, steps=5)
    for i, problem in enumerate(problems):
        lower, upper = problem.lower.copy(), problem.upper.copy()
        init = problem.extract(problem.controls)
        if i == 1:
            lower[1::2] = upper[1::2] = init[1::2]
        got = maximize(problem, lower, upper, init)
        want = maximize_with_minimize(problem, lower, upper, init)
        assert_same_reports([got], [want])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a stall passes the objective-change stop")
def test_cold_window_solve_agrees_with_a_restart_from_its_exit(default_scenario):
    # The 61-step window from step 18 of the cold profile stops on
    # objective-change after 12 iterations at -56294.12; a restart from its
    # exit stops on gradient after 209 iterations at -52332.99.
    sc = default_scenario
    cold = ControlProfile.constant(sc.n_regions, sc.horizon, 0.25, 0.1)
    x18 = simulate(sc.x0, cold, sc).state(18)
    cold61 = cold.controls[:, :61]
    problem = WindowProblem(sc, sc.weights, x18, 18, cold61)
    first = maximize(problem, problem.lower, problem.upper, problem.extract(cold61))
    restart = maximize(problem, problem.lower, problem.upper, first.x)
    assert first.objective == pytest.approx(restart.objective, rel=1e-9, abs=0)


def test_member_values_match_window_problem_calls(default_scenario, rng):
    # The same bits, which the lockstep's equality with serial solves rests on:
    # for a whole round and for the few members still live in a late one.
    for t0, steps in [(3, 5), (0, 121), (7, 10)]:
        problems = window_problems(default_scenario, rng, t0=t0, steps=steps)
        points = [p.extract(p.controls) + 0.01 for p in problems]
        for live in [range(len(problems)), [3, 9], [0, 2, 5, 7, 11]]:
            batch = [problems[k] for k in live]
            zs = [points[k] for k in live]
            for (f, g), p, z in zip(_member_values(batch, zs), batch, zs, strict=True):
                want_f, want_g = p(z)
                assert f == want_f
                assert g.shape == want_g.shape and g.tobytes() == want_g.tobytes()


def test_lockstep_reports_equal_serial_solves(default_scenario, rng):
    problems = window_problems(default_scenario, rng, t0=3, steps=5)
    reports = lockstep(problems)
    assert_same_reports(reports, serial(problems))
    assert len({r.n_evaluations for r in reports}) > 1  # members end in different rounds


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
    maximize(counted, p0.lower, p0.upper, p0.extract(p0.controls))
    assert broke
    reports = lockstep(problems)
    assert_same_reports(reports, serial(problems))
    assert_same_reports(reports[1:], lockstep(problems[1:]))


class BreakingQuadratic:
    """A concave quadratic peaked at 0.8 whose evaluation breaks the model
    where ``z[0] > 0.6``; it records every point it is called at."""

    def __init__(self):
        self.points = []

    def __call__(self, z):
        self.points.append(z.copy())
        if z[0] > 0.6:
            raise ModelBreakdownError("breaks above 0.6", step=0)
        return -float(np.sum((z - 0.8) ** 2)), -2.0 * (z - 0.8)


def test_lockstep_evaluates_a_breaking_point_once():
    # maximize calls its objective once per point it asks for; a one-member
    # lockstep must too, also where the point breaks the model.
    lower, upper, init = np.zeros(3), np.ones(3), np.full(3, 0.2)
    alone, member = BreakingQuadratic(), BreakingQuadratic()
    want = maximize(alone, lower, upper, init)
    got = _lockstep([member], [lower], [upper], [init])
    assert_same_reports(got, [want])
    assert any(z[0] > 0.6 for z in member.points)
    assert len(member.points) == len(alone.points)
    assert np.array_equal(member.points, alone.points)


class Probe:
    """Stands in for ``solver._adjoint_arrays``, which answers each lockstep
    round once: records the live thread count and the CPUs the caller may
    run on at every call, and raises on its call number ``fail_at``, if set."""

    def __init__(self, sweep):
        self.sweep, self.alive, self.cpus, self.calls, self.fail_at = sweep, 0, [], 0, None

    def __call__(self, *args, **kwargs):
        self.alive = max(self.alive, threading.active_count())
        if hasattr(os, "sched_getaffinity"):
            self.cpus.append(os.sched_getaffinity(0))
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("evaluation failed")
        return self.sweep(*args, **kwargs)


@pytest.fixture
def probe(monkeypatch):
    probe = Probe(solver._adjoint_arrays)
    monkeypatch.setattr(solver, "_adjoint_arrays", probe)
    return probe


def test_lockstep_starts_no_thread(rng, probe):
    before = threading.active_count()
    problems = window_problems(make_scenario(n=5), rng)
    lockstep(problems)
    assert probe.calls and probe.alive == before
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_lockstep_leaves_the_callers_cpu_affinity_unchanged(rng, probe):
    caller = os.sched_getaffinity(0)
    problems = window_problems(make_scenario(n=4), rng)
    lockstep(problems)
    assert probe.cpus and all(cpus == caller for cpus in probe.cpus)
    assert os.sched_getaffinity(0) == caller
    probe.fail_at = probe.calls + 2
    with pytest.raises(RuntimeError, match="evaluation failed"):
        lockstep(problems)
    assert all(cpus == caller for cpus in probe.cpus)
    assert os.sched_getaffinity(0) == caller


def test_lockstep_raises_only_after_every_thread_ended(rng, probe):
    # A member's error is raised at once, from the calling thread, and
    # leaves no thread behind.
    before = threading.active_count()
    problems = window_problems(make_scenario(n=4), rng)
    probe.fail_at = 3
    with pytest.raises(RuntimeError, match="evaluation failed"):
        lockstep(problems)
    assert threading.active_count() == before
    # An error of a member's own solve, before any evaluation.
    problems = window_problems(make_scenario(n=4), rng)
    inits = [p.extract(p.controls) for p in problems]
    inits[1] = inits[1] + 2.0
    with pytest.raises(ModelDomainError, match="init must lie within the bounds"):
        _lockstep(problems, [p.lower for p in problems], [p.upper for p in problems], inits)
    assert threading.active_count() == before


@pytest.mark.parametrize("packaged", [False, True], ids=["False", "True"])
def test_jacobi_round_equals_serial_best_responses(default_scenario, packaged, rng):
    # One Jacobi round in lockstep against serial maximize solves of the same
    # own-welfare problems, every evaluation a batch of one. The packaged
    # scenario runs at a short horizon.
    sc = default_scenario if packaged else make_scenario()
    steps = 13 if packaged else sc.horizon + 1
    profile = random_profile(sc, steps, rng, margin=0.1)
    results = _best_responses(sc, profile)
    problems = [_own_problem(sc, i, sc.x0, 0, profile.controls)[0]
                for i in range(sc.n_regions)]
    reports = [r.report for r in results]
    assert_same_reports(reports, serial(problems))
    assert len({r.n_evaluations for r in reports}) > 1  # members end in different rounds
    for i, result in enumerate(results):
        assert result.region == i
        assert result.welfare == result.report.objective
        assert result.controls.tobytes() == problems[i].embed(result.report.x)[i].tobytes()
        # Each result owns its controls.
        assert result.controls.flags.owndata
        assert not any(np.shares_memory(result.controls, other.controls)
                       for other in results if other is not result)
