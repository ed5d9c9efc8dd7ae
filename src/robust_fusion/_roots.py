"""Bracketing bisection helpers.

All solvers here are plain bisection: robust, derivative-free and exactly
reproducible. They are used for one-shot parameter solves (tilt exponents,
clip constants) and for locating where a log-likelihood ratio without a
closed-form inverse crosses a level, so robustness matters more than
iteration count.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def solve_increasing(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    *,
    tol: float = 1e-12,
) -> float:
    """Solve f(y) = target for nondecreasing f by bisection.

    Requires f(lo) <= target <= f(hi); raises ValueError when the bracket
    does not contain the target. Returns the bracket midpoint once the
    bracket width falls below ``tol`` (absolute) or after 200 halvings.
    """
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo > target or f_hi < target:
        raise ValueError(
            f"target {target!r} not bracketed by f({lo!r})={f_lo!r}, f({hi!r})={f_hi!r}"
        )
    a, b = lo, hi
    for _ in range(200):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        if f(m) < target:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def solve_decreasing(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    *,
    tol: float = 1e-12,
) -> float:
    """Solve f(y) = target for nonincreasing f by bisection."""
    return solve_increasing(lambda y: -f(y), lo, hi, -target, tol=tol)


def crossings(
    f: Callable[[float], float], xs: np.ndarray, fx: np.ndarray, level: float, strict: bool = False
) -> list[float]:
    """Where f, tabulated as ``fx`` on the increasing grid ``xs``, crosses ``level``.

    A point is above when f >= level (f > level when ``strict``). Each grid
    cell whose ends disagree is bisected down to adjacent floats; the first
    float on the right end's side is returned. Crossings narrower than one
    cell can be missed.
    """
    above = fx > level if strict else fx >= level
    points = []
    for i in np.flatnonzero(above[1:] != above[:-1]):
        a, b = float(xs[i]), float(xs[i + 1])
        for _ in range(200):
            m = 0.5 * (a + b)
            if not a < m < b:
                break
            if (f(m) > level if strict else f(m) >= level) == above[i]:
                a = m
            else:
                b = m
        points.append(b)
    return points
