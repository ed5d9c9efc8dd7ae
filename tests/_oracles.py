"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately implemented through a different route than
the library: adaptive quadrature instead of erfc, direct enumeration
instead of convolution, binomial formulas instead of repeated folding.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad


def normal_cdf_quadrature(x: float, mean: float = 0.0, sigma: float = 1.0) -> float:
    """Gaussian cdf by adaptive quadrature of the density (1e-12 accurate)."""
    density = lambda t: math.exp(-0.5 * ((t - mean) / sigma) ** 2) / (
        sigma * math.sqrt(2.0 * math.pi)
    )
    val, _ = quad(density, mean - 12.0 * sigma, x, limit=200)
    return val


def density_integral(fn, lo: float, hi: float, points=None) -> float:
    """Adaptive quadrature of an arbitrary scalar density."""
    val, _ = quad(fn, lo, hi, points=points, limit=400)
    return val


def binomial_majority_error(k: int, p: float) -> float:
    """P[more than k/2 wrong of k i.i.d. Bernoulli(p) errors]."""
    return sum(
        math.comb(k, j) * p**j * (1.0 - p) ** (k - j) for j in range(k // 2 + 1, k + 1)
    )


def enumerate_error_probs(level_sets, llrs, laws0, laws1, log_threshold, prior0):
    """(P_F, P_M, P_E) by direct enumeration of all level combinations."""

    def decide(llr_values):
        if any(v == math.inf for v in llr_values) and any(
            v == -math.inf for v in llr_values
        ):
            return 0
        if any(v == math.inf for v in llr_values):
            return 1
        if any(v == -math.inf for v in llr_values):
            return 0
        return 1 if sum(llr_values) > log_threshold else 0

    p_decide1 = [0.0, 0.0]
    for which, laws in enumerate((laws0, laws1)):
        for combo in itertools.product(*[range(len(ls)) for ls in level_sets]):
            prob = 1.0
            for law, idx in zip(laws, combo):
                prob *= law[idx]
            if prob and decide([llr[i] for llr, i in zip(llrs, combo)]):
                p_decide1[which] += prob
    p_f = p_decide1[0]
    p_m = 1.0 - p_decide1[1]
    return p_f, p_m, prior0 * p_f + (1.0 - prior0) * p_m


def grid_search_thresholds(pairs, num_levels, prior0, points=101):
    """Exhaustive grid-search oracle for ``fusion.optimize_thresholds``.

    Scans ``points`` values per coordinate (log-LR space) over all sorted
    combinations; returns (log thresholds per sensor, log fusion
    threshold, p_error). Intended for validation at desk scale.
    """
    from robust_fusion.fusion import _ThresholdObjective

    objective = _ThresholdObjective(pairs, prior0)
    axes = []
    for pair, d in zip(pairs, num_levels):
        lo, hi = float(pair.log_lr(pair.support[0])), float(pair.log_lr(pair.support[1]))
        axes.extend([np.linspace(lo, hi, points)] * d)
    best = (math.inf, 0.0, None)
    for combo in itertools.product(*axes):
        conf = []
        pos = 0
        for c in num_levels:
            conf.append(list(combo[pos : pos + c]))
            pos += c
        if any(b <= a for coords in conf for a, b in zip(coords, coords[1:])):
            continue
        pe, tau = objective.evaluate(conf)
        if pe < best[0]:
            best = (pe, tau, tuple(tuple(c) for c in conf))
    return best[2], best[1], best[0]


def atoms_stochastically_larger_loop(x, y, tol: float = 1e-12):
    """Reference X >= Y check for ``AtomPmf``s: one cdf pair per support point."""
    worst = -math.inf
    for v in np.union1d(x.atoms, y.atoms):
        worst = max(worst, x.cdf(float(v)) - y.cdf(float(v)))
    return worst <= tol, worst


def ordered_pmf_pair(rng: np.random.Generator, max_levels: int = 6):
    """(x_probs, y_probs, levels) with X stochastically larger than Y.

    Built by moving random mass fractions of Y upward, which lowers the
    cdf pointwise by construction.
    """
    k = int(rng.integers(2, max_levels + 1))
    levels = np.sort(rng.choice(np.arange(-5, 9), size=k, replace=False))
    y = rng.dirichlet(np.ones(k))
    x = y.copy()
    for _ in range(int(rng.integers(1, 2 * k))):
        i = int(rng.integers(0, k - 1))
        j = int(rng.integers(i + 1, k))
        moved = x[i] * rng.uniform(0.0, 1.0)
        x[i] -= moved
        x[j] += moved
    return x, y, [int(v) for v in levels]


def random_nondecreasing_map(rng: np.random.Generator, levels):
    """Random nondecreasing level map, with occasional flat stretches."""
    increments = rng.uniform(0.0, 2.0, size=len(levels))
    increments[rng.random(len(levels)) < 0.25] = 0.0
    values = rng.uniform(-3.0, 3.0) + np.cumsum(increments)
    table = {level: float(v) for level, v in zip(levels, values)}
    return lambda level: table[level]
