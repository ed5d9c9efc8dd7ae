"""Bracketing root solvers: exactly reproducible bisections for one-shot
parameter solves (tilts, clip constants, probe scales), and safeguarded
Newton steps for the mixture quantiles of default thresholds and, all at
once, for the Bernoulli KL roots of the KL ball's boundedness gaps."""

from __future__ import annotations

import math
from typing import Callable, Sequence

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


def bernoulli_kl_root(p, eps: float) -> np.ndarray:
    """The root x >= p of kl(x || p) = x log(x/p) + (1-x) log((1-x)/(1-p)) = eps
    for each p (clipped into [0, 1]): 1 where kl(1 || p) = -log p is within
    eps, p where eps = 0 or p = 0. One vectorized Newton solve in d = x - p:
    kl = (p + d) log1p(d/p) + (q - d) log1p(-d/q), q = 1 - p, keeps its
    relative accuracy as d -> 0 and is convex and rising on [0, q], so from
    the chi-square start sqrt(2 eps p q) (capped at q/2; within rounding of
    p it is p) each step lands at or past the root and falls to it; a step
    past q halves the distance to q instead. It ends once no step exceeds
    1e-15.
    """
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    q = 1.0 - p
    with np.errstate(divide="ignore"):  # kl(1 || 0) is inf
        reached = -np.log(p) <= eps
    d = np.minimum(np.sqrt(2.0 * eps) * np.sqrt(p * q), 0.5 * q)
    live = np.flatnonzero(~reached & (p + d != p))
    pl, ql, dl = p[live], q[live], d[live]
    log_p = np.log(pl)
    for _ in range(100):
        # log1p(d/p) as a log difference past d = p, where d/p can overflow
        up = np.where(dl > pl, np.log(pl + dl) - log_p, np.log1p(np.minimum(dl, pl) / pl))
        down = np.log1p(-dl / ql)
        new = dl - ((pl + dl) * up + (ql - dl) * down - eps) / (up - down)
        new = np.where(new < ql, new, 0.5 * (dl + ql))
        step, dl = np.max(np.abs(new - dl), initial=0.0), new
        if step <= 1e-15:
            break
    d[live] = dl
    return np.where(reached, 1.0, p + d)
