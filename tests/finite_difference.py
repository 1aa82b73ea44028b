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
    stacked: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference gradient oracle, central where feasible.

    ``objective(x)`` may return a scalar or a (value, gradient) pair; only
    the value is used. With ``stacked``, ``objective`` instead takes a
    (k, d) stack of points and returns their k values, and is called once.
    When a symmetric step leaves the [lower, upper] box, a one-sided
    difference is used and flagged in the returned boolean array.
    """
    point = np.asarray(point, dtype=float)
    steps = np.broadcast_to(np.asarray(step, dtype=float), point.shape)
    if np.any(steps <= 0.0):
        raise ModelDomainError("finite-difference steps must be positive")

    # Row j of ``ahead`` and ``behind`` are the two points of coordinate j's
    # difference, ``width[j]`` the distance between them.
    ahead = np.tile(point, (point.size, 1))
    behind = ahead.copy()
    width = np.empty_like(point)
    one_sided = np.zeros(point.shape, dtype=bool)
    for j in range(point.size):
        h = steps[j]
        lo_ok = lower is None or point[j] - h >= lower[j]
        hi_ok = upper is None or point[j] + h <= upper[j]
        if not (lo_ok or hi_ok):
            raise ModelDomainError(
                f"coordinate {j} admits no feasible finite-difference step"
            )
        if hi_ok:
            ahead[j, j] += h
        if lo_ok:
            behind[j, j] -= h
        width[j] = 2.0 * h if lo_ok and hi_ok else h
        one_sided[j] = not (lo_ok and hi_ok)

    if stacked:
        values = np.asarray(objective(np.concatenate([ahead, behind])), dtype=float)
    else:
        values = np.array([_value(objective(x)) for x in (*ahead, *behind)])
    grad = (values[: point.size] - values[point.size :]) / width
    return grad, one_sided


def _value(out) -> float:
    return float(out[0]) if isinstance(out, tuple) else float(out)
