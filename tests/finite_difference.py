"""Finite-difference gradient check, independent of the adjoint sweep."""

from __future__ import annotations

import numpy as np

from rice_game.model import ModelDomainError


def gradient_fd(
    objective,
    point: np.ndarray,
    step: float | np.ndarray = 1e-6,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference gradient oracle, central where feasible.

    ``objective(x)`` may return a scalar or a (value, gradient) pair; only
    the value is used. When a symmetric step leaves the [lower, upper]
    box, a one-sided difference is used and flagged in the returned
    boolean array.
    """
    point = np.asarray(point, dtype=float)
    steps = np.broadcast_to(np.asarray(step, dtype=float), point.shape)
    if np.any(steps <= 0.0):
        raise ModelDomainError("finite-difference steps must be positive")

    def value(x):
        out = objective(x)
        return float(out[0]) if isinstance(out, tuple) else float(out)

    grad = np.empty_like(point)
    one_sided = np.zeros(point.shape, dtype=bool)
    for j in range(point.size):
        h = steps[j]
        lo_ok = lower is None or point[j] - h >= lower[j]
        hi_ok = upper is None or point[j] + h <= upper[j]
        xp = point.copy()
        xm = point.copy()
        if lo_ok and hi_ok:
            xp[j] += h
            xm[j] -= h
            grad[j] = (value(xp) - value(xm)) / (2.0 * h)
        elif hi_ok:
            xp[j] += h
            grad[j] = (value(xp) - value(point)) / h
            one_sided[j] = True
        elif lo_ok:
            xm[j] -= h
            grad[j] = (value(point) - value(xm)) / h
            one_sided[j] = True
        else:
            raise ModelDomainError(
                f"coordinate {j} admits no feasible finite-difference step"
            )
    return grad, one_sided
