"""Bracketing root solvers: exactly reproducible bisections for one-shot
parameter solves (tilts, clip constants, probe scales), and safeguarded
Newton steps for the mixture quantiles of default thresholds."""

from __future__ import annotations

import math
from typing import Callable, Sequence


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


def solve_newton(
    f: Callable[[float], float],
    df: Callable[[float], float],
    lo: float,
    hi: float,
    targets: Sequence[float],
) -> list[float]:
    """Roots of f(y) = t for each of ``targets``, f nondecreasing with
    derivative ``df``, by Newton steps from the midpoint of [lo, hi] (read
    once for all targets). The bracket must hold every root; it is trusted,
    not read. A step that would leave a target's bracket, or that is longer
    than half the step before the last, bisects it instead (``rtsafe``). A
    root is returned after a step shorter than 1e-10 * max(1, |y|), or once
    its bracket is narrower than 1e-13 * max(1, |y|).
    """
    mid = 0.5 * (lo + hi)
    at_mid = f(mid), df(mid)
    roots = []
    for target in targets:
        a, b, y = lo, hi, mid
        value, slope = at_mid
        last = before = hi - lo  # the last two steps
        for _ in range(200):
            r = value - target
            if r == 0.0:
                break
            if r < 0.0:
                a = y
            else:
                b = y
            newton = -r / slope if slope > 0.0 else math.inf
            if abs(newton) <= 1e-10 * max(1.0, abs(y)):
                y += newton
                break
            if a < y + newton < b and abs(newton) <= 0.5 * abs(before):
                before, last = last, newton
            else:
                before, last = last, 0.5 * (b - a)
                y = a
            y += last
            if b - a <= 1e-13 * max(1.0, abs(y)):
                break
            value, slope = f(y), df(y)
        roots.append(y)
    return roots
