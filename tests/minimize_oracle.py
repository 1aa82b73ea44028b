"""``maximize`` through scipy's ``minimize``, the reference for the solver's
own L-BFGS-B driver loop: the same checks, memo, scaling, breakdown penalty,
objective log and ascent guarantee, with the loop left to
``scipy.optimize.minimize(method="L-BFGS-B")``. The iteration and evaluation
caps are read from ``rice_game.solver`` at each call, so a test that
patches them there patches both sides."""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from rice_game import solver
from rice_game.model import ModelBreakdownError, ModelDomainError
from rice_game.solver import (
    _BREAKDOWN_MARGIN,
    _GRAD_TOL,
    _LBFGS_MEMORY,
    _MAX_LINE_SEARCH,
    _OBJ_REL_TOL,
    SolveReport,
)


def _termination_reason(res) -> str:
    msg = str(res.message).upper()
    if "PGTOL" in msg or "PROJECTED GRADIENT" in msg:
        return "gradient"
    if "FACTR" in msg or "REDUCTION" in msg:
        return "objective-change"
    if res.status == 1:
        return "max-iter"
    return "line-search-failure"


def maximize_with_minimize(objective, lower, upper, init) -> SolveReport:
    """:func:`rice_game.solver.maximize`, with scipy's ``minimize`` as the engine."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    init = np.asarray(init, dtype=float)
    if lower.shape != init.shape or upper.shape != init.shape:
        raise ModelDomainError("bounds and init must share one shape")
    if np.any(lower > upper):
        raise ModelDomainError("lower bound exceeds upper bound")
    if np.any(init < lower - 1e-12) or np.any(init > upper + 1e-12):
        raise ModelDomainError("init must lie within the bounds")
    init = np.clip(init, lower, upper)

    last = {}

    def evaluate(x):
        if last and np.array_equal(x, last["x"]):
            return last["fg"]
        fg = objective(x)
        last["x"], last["fg"] = x.copy(), fg
        return fg

    f0, _ = evaluate(init)
    if not np.isfinite(f0):
        raise ModelDomainError("objective at init is not finite")
    scale = 1.0 / max(abs(f0), 1e-12)

    last_f = {"val": math.nan}

    def fun(x):
        try:
            f, g = evaluate(x)
        except ModelBreakdownError:
            f, g = -_BREAKDOWN_MARGIN / scale, np.zeros_like(x)
        last_f["val"] = f
        return -scale * f, -scale * np.asarray(g)

    log = [f0]

    def callback(xk):
        log.append(last_f["val"])

    res = minimize(
        fun,
        init,
        method="L-BFGS-B",
        jac=True,
        bounds=list(zip(lower, upper)),
        callback=callback,
        options={
            "maxiter": solver._MAX_ITER,
            "maxfun": solver._MAX_FUN,
            "maxcor": _LBFGS_MEMORY,
            "maxls": _MAX_LINE_SEARCH,
            "gtol": _GRAD_TOL,
            "ftol": _OBJ_REL_TOL,
        },
    )
    x = res.x.copy()
    if log[-1] < f0:
        x, log = init.copy(), [f0]
    return SolveReport(
        x=x,
        objective=log[-1],
        initial_objective=f0,
        iterations=res.nit,
        n_evaluations=res.nfev,
        termination=_termination_reason(res),
        objective_log=np.asarray(log),
    )
