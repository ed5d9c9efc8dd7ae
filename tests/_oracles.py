"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately implemented through a different route than
the library: adaptive quadrature instead of erfc, direct enumeration
instead of convolution, binomial formulas instead of repeated folding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


def lfd_logpdfs(pair):
    """(log q0, log q1) of an LFD pair, on scalars or arrays. Gaussian laws
    give their own log-densities; a contamination (Huber) pair's are
    written from its construction parameters in ``meta`` (nominals, radii,
    clip points y_lo, y_hi and clip constants c_lo, c_hi), not from the
    library's cdfs: (1 - eps0) p0 below y_hi and (1 - eps0) p1 / c_hi
    above it; (1 - eps1) c_lo p0 below y_lo and (1 - eps1) p1 above it."""
    meta = pair.meta
    if meta["kind"] != "huber":
        return pair.q0.logpdf, pair.q1.logpdf
    p0, p1 = meta["nominal0"], meta["nominal1"]
    y_lo, y_hi = meta["y_lo"], meta["y_hi"]
    with np.errstate(divide="ignore"):
        log_c_lo, log_c_hi = float(np.log(meta["c_lo"])), float(np.log(meta["c_hi"]))

    def logpdf0(y):
        y = np.asarray(y, dtype=float)
        return math.log1p(-meta["eps0"]) + np.where(y < y_hi, p0.logpdf(y), p1.logpdf(y) - log_c_hi)

    def logpdf1(y):
        y = np.asarray(y, dtype=float)
        return math.log1p(-meta["eps1"]) + np.where(y > y_lo, p1.logpdf(y), p0.logpdf(y) + log_c_lo)

    return logpdf0, logpdf1


def randomized_binary_laws(accept_prob, pair, jumps=()):
    """(pmf0, pmf1) that a randomized binary rule induces under an LFD pair:
    P[U = 1 | H_j] is the integral of ``accept_prob`` against the j-th
    density (:func:`lfd_logpdfs`) by adaptive quadrature, with the rule's
    ``jumps`` as break points."""
    from robust_fusion.distributions import DiscretePmf

    lo, hi = pair.support
    laws = []
    for logpdf in lfd_logpdfs(pair):
        density = lambda y: float(accept_prob(y)) * math.exp(float(logpdf(y)))
        p_one = density_integral(density, lo, hi, points=list(jumps) or None)
        laws.append(DiscretePmf((0, 1), np.array([1.0 - p_one, p_one])))
    return tuple(laws)


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


def joint_llr_sums(channels, laws):
    """(sums, probs, has_pos, has_neg) over every joint level, by numpy
    enumeration: raw finite-LLR sums in sensor order (no atom merging),
    joint probabilities and whether some level has LLR +inf or -inf."""
    sums, probs = np.zeros(1), np.ones(1)
    has_pos, has_neg = np.zeros(1, bool), np.zeros(1, bool)
    for ch, law in zip(channels, laws):
        sums = np.add.outer(sums, np.where(np.isfinite(ch.llr), ch.llr, 0.0)).ravel()
        probs = np.multiply.outer(probs, law.probs).ravel()
        has_pos = np.logical_or.outer(has_pos, ch.llr == math.inf).ravel()
        has_neg = np.logical_or.outer(has_neg, ch.llr == -math.inf).ravel()
    return sums, probs, has_pos, has_neg


def fuse(net, u):
    """The fusion decision for one vector of sensor levels ``u``.

    Decides 1 iff the LLR sum exceeds the log threshold by more than
    ``TIE_TOL``; ties decide 0. An infinite-LLR level (impossible under
    one hypothesis) forces the decision (``fusion._decide_one``).
    """
    from robust_fusion.fusion import _decide_one

    if len(u) != net.num_sensors:
        raise ValueError(f"expected {net.num_sensors} levels, got {len(u)}")
    if any(int(level) not in ch.levels for ch, level in zip(net.channels, u)):
        raise ValueError(f"levels {list(u)} not all in the channels' levels")
    llrs = np.array([ch.llr[ch.levels.index(int(level))] for ch, level in zip(net.channels, u)])
    return int(
        _decide_one(
            llrs[np.isfinite(llrs)].sum(),
            np.any(llrs == math.inf),
            np.any(llrs == -math.inf),
            net.log_threshold,
        )
    )


def decide_one_enumeration(channels, laws, taus):
    """P[decide 1] at each log threshold in ``taus``, by numpy enumeration.

    A -inf level forces 0, a +inf level forces 1, and otherwise the raw
    sum decides 1 only above ``tau + TIE_TOL``; each threshold's tail is
    read off the sorted sums.
    """
    from robust_fusion.fusion import TIE_TOL

    sums, probs, has_pos, has_neg = joint_llr_sums(channels, laws)
    finite = ~has_pos & ~has_neg
    order = np.argsort(sums[finite], kind="stable")
    tail = np.r_[np.cumsum(probs[finite][order][::-1])[::-1], 0.0]
    idx = np.searchsorted(sums[finite][order], np.asarray(taus) + TIE_TOL, side="right")
    return np.sum(probs[has_pos & ~has_neg]) + tail[idx]


def fold_laws(channels, *law_lists):
    """The LLR-sum law (``fusion.LlrSumLaw``) of the channels when each
    sensor's level follows a list of laws, by the library's own fold
    (``fusion._fold`` of ``sensor._sensor_part``s): several lists (H0 and
    H1) give one mass row each on one shared support. The library itself
    only folds its channels' own laws (``SensorChannel.part``)."""
    from robust_fusion.fusion import _fold
    from robust_fusion.sensor import _sensor_part

    for ch, *laws in zip(channels, *law_lists):
        if any(law.levels != ch.levels for law in laws):
            raise ValueError(f"law levels do not match channel levels {ch.levels}")
    rows = [np.array([law.probs for law in laws]) for laws in zip(*law_lists)]
    return _fold([_sensor_part(ch.llr, p if len(p) > 1 else p[0]) for ch, p in zip(channels, rows)])


def finite_sum(law):
    """The finite part of an LLR-sum law as one atom law: its halves
    convolved, or the right half itself when the left is the empty sum."""
    from robust_fusion.fusion import _POINT_ZERO
    from robust_fusion.ordering import convolve

    return law.right if law.left is _POINT_ZERO else convolve(law.left, law.right)


def member_error(net, laws0, laws1):
    """``fusion.exact_error(net, cross_check=False)`` with the sensors'
    levels following ``laws0`` under H0 and ``laws1`` under H1 instead of
    the channels' own laws: one :func:`fold_laws` with an H0 and an H1 row."""
    from robust_fusion.fusion import _report

    p_one = fold_laws(net.channels, laws0, laws1).prob_decide_one(net.log_threshold)
    return _report(p_one, net.prior0, "exact-convolution")


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
        lo, hi = pair.log_lr_range()
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


def best_fusion_threshold(law0, law1, prior0):
    """Exact minimizer of P_E over the achievable LLR-sum atoms, by the scan
    the designer made one law at a time before its replies were batched
    (``fusion._scan_rows``).

    Under the tie-to-null rule the error probability only changes at atom
    values, so scanning atoms (plus an always-decide-1 candidate below the
    smallest; 0.0 alone without atoms) is exhaustive. ``law0``/``law1`` are
    the LLR-sum laws under H0 and H1 of one rule, on one support (else
    ValueError), each candidate scored by :meth:`LlrSumLaw.prob_decide_one`
    of the two as mass rows of one law. Returns (log_threshold, p_error).
    """
    from robust_fusion.distributions import AtomPmf
    from robust_fusion.fusion import LlrSumLaw

    halves = []
    for h0, h1 in ((law0.left, law1.left), (law0.right, law1.right)):
        if not np.array_equal(h0.atoms, h1.atoms):
            raise ValueError("the H0 and H1 laws must share one support")
        rows = np.array([h0.masses, h1.masses])
        halves.append(h0 if h0 is h1 else AtomPmf._from_sorted(h0.atoms, rows))
    law = LlrSumLaw(*halves, np.array([law0.forced_one, law1.forced_one]))
    return best_threshold(law, prior0)


def best_threshold(law, prior0):
    """``best_fusion_threshold`` of a law with an H0 and an H1 mass row."""
    candidates, p_e = threshold_errors(law, prior0)
    best = int(np.argmin(p_e))
    return float(candidates[best]), float(p_e[best])


def threshold_errors(law, prior0):
    """(candidate log thresholds, P_E at each) for ``best_fusion_threshold``.

    The candidates are every atom of the sum (both rows') and one below.
    """
    atoms = finite_sum(law).atoms  # with none, every threshold gives one P_E
    candidates = np.concatenate([[atoms[0] - 1.0] if len(atoms) else [0.0], atoms])
    p_one = law.prob_decide_one(candidates)
    return candidates, prior0 * p_one[0] + (1.0 - prior0) * (1.0 - p_one[1])


def full_rebuild_objective(pairs, prior0, all_log_thresholds):
    """Reference for ``fusion._ThresholdObjective.evaluate``: no caches.

    Builds every sensor's channel and folds both K-fold LLR-sum laws from
    scratch for each configuration. Returns (p_error, log fusion
    threshold), or (inf, 0.0) when some sensor's quantizer is invalid: its
    thresholds are not strictly increasing, or ``channel_from_quantizer``
    refuses its channel (a per-level LLR that falls).
    """
    import warnings

    from robust_fusion.distributions import AtomPmf
    from robust_fusion.fusion import LlrSumLaw
    from robust_fusion.ordering import convolve_many
    from robust_fusion.sensor import Quantizer, channel_from_quantizer

    channels = []
    for pair, coords in zip(pairs, all_log_thresholds):
        try:
            q = Quantizer(tuple(math.exp(t) for t in coords))
        except ValueError:
            return math.inf, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                channels.append(channel_from_quantizer(q, pair))
            except RuntimeError:  # the per-level LLR falls
                return math.inf, 0.0
    sums = []
    for laws in ([ch.pmf0 for ch in channels], [ch.pmf1 for ch in channels]):
        # every atom of the sum, folded left to right in sensor order, as
        # the right half of a law whose left half is the point mass at 0
        finite = convolve_many([
            AtomPmf(ch.llr[np.isfinite(ch.llr)], law.probs[np.isfinite(ch.llr)])
            for ch, law in zip(channels, laws)
        ])
        point_zero = AtomPmf(np.zeros(1), np.ones(1))
        sums.append(LlrSumLaw(point_zero, finite, fold_laws(channels, laws).forced_one))
    tau, p_e = best_fusion_threshold(*sums, prior0)
    return p_e, tau


def plain_person_by_person(pairs, num_levels, prior0):
    """Reference for ``fusion.optimize_thresholds`` without Anderson steps.

    The plain person-by-person loop from the optimizer's three starts: each
    start sweeps until a sweep gains less than 1e-12, or 40 sweeps, and the
    lowest P_E wins. Returns (log thresholds per sensor, log fusion
    threshold, p_error, converged, sweeps over all starts).
    """
    from robust_fusion.fusion import _starts, _sweep, _ThresholdObjective

    objective = _ThresholdObjective(pairs, prior0)
    best_conf = None
    best_pe = math.inf
    best_tau = 0.0
    best_converged = False
    sweeps = 0
    for conf in _starts(objective, num_levels):
        conf = [list(c) for c in conf]
        pe, tau = objective.evaluate(conf)
        converged = False
        for _ in range(40):
            swept_pe, tau = _sweep(objective, conf)
            sweeps += 1
            gain, pe = pe - swept_pe, swept_pe
            if gain < 1e-12:
                converged = True
                break
        if pe < best_pe:
            best_pe, best_tau, best_conf, best_converged = pe, tau, conf, converged
    return best_conf, best_tau, best_pe, best_converged, sweeps


def envelope_cuts_loop(a0, a1, prior0, bracket, num):
    """Reference for ``fusion._envelope_cuts``, one row (a0, a1) at a time.

    Walks the lower envelope of the level lines from the lowest one at the
    bracket's low end (on a tie the steeper one), each step to the steeper
    line crossed first (lexsort: lowest crossing, then larger a1, then
    lower level), dropping crossings at or past the bracket's high end; then
    splits the first widest cell while fewer than ``num`` cuts remain.
    Uses numpy's ``log`` on the same differences as the kernel.
    """
    lo, hi = bracket
    pi1 = 1.0 - prior0
    order = np.lexsort((-a1, prior0 * a0 - pi1 * a1 * math.exp(lo)))
    cur, at, cuts = int(order[0]), lo, []
    while True:
        up = np.flatnonzero(a1 > a1[cur])
        if not up.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.log(prior0 * (a0[up] - a0[cur])) - np.log(pi1 * (a1[up] - a1[cur]))
        cross = np.maximum(np.where(np.isnan(cross), -math.inf, cross), at)
        k = int(np.lexsort((-a1[up], cross))[0])
        if cross[k] >= hi:
            break
        if cross[k] > at:
            cuts.append(float(cross[k]))
        cur, at = int(up[k]), float(cross[k])
    while len(cuts) < num:
        edges = [lo, *cuts, hi]
        k = int(np.argmax(np.diff(edges)))
        cuts.insert(k, 0.5 * (edges[k] + edges[k + 1]))
    return tuple(cuts)


def atom_pmf_unique_reference(atoms, masses):
    """(atoms, masses) of ``AtomPmf`` normal form via ``np.unique``: a
    stable sort, then exact duplicates summed by ``bincount``."""
    atoms = np.asarray(atoms, dtype=float)
    masses = np.asarray(masses, dtype=float)
    order = np.argsort(atoms, kind="stable")
    atoms, masses = atoms[order], masses[order]
    uniq, inverse = np.unique(atoms, return_inverse=True)
    if uniq.shape[0] != atoms.shape[0]:
        return uniq, np.bincount(inverse, weights=masses, minlength=uniq.shape[0])
    return atoms, masses


def atoms_stochastically_larger(x, y, tol: float = 1e-12):
    """Exact X >= Y check for ``AtomPmf``s, where X >= Y means the cdf of Y
    sits on or above the cdf of X everywhere; returns (holds, worst gap),
    the worst gap being the largest cdf_X - cdf_Y on the joint support."""
    support = np.union1d(x.atoms, y.atoms)

    def cdf_on_support(p):
        cum = np.concatenate(([0.0], np.cumsum(p.masses)))
        return cum[np.searchsorted(p.atoms, support, side="right")]

    worst = float(np.max(cdf_on_support(x) - cdf_on_support(y), initial=-math.inf))
    return worst <= tol, worst


def atoms_stochastically_larger_loop(x, y, tol: float = 1e-12):
    """Reference X >= Y check for ``AtomPmf``s: one cdf pair per support point."""

    def cdf(p, v):
        return sum(m for a, m in zip(p.atoms, p.masses) if a <= v)

    worst = -math.inf
    for v in np.union1d(x.atoms, y.atoms):
        worst = max(worst, cdf(x, v) - cdf(y, v))
    return worst <= tol, worst


def tail_mass(law, x: float) -> float:
    """Mass of an ``AtomPmf`` strictly above ``x``."""
    return float(np.sum(law.masses[law.atoms > x]))


def pushforward(levels, probs, upsilon):
    """``AtomPmf`` of upsilon(L) for a level law (levels, probs); equal
    images merge."""
    from robust_fusion.distributions import AtomPmf

    return AtomPmf(np.array([float(upsilon(level)) for level in levels]), probs)


def gaussian_kl(q, p) -> float:
    """D(q || p) in nats for Gaussians, in the textbook form
    log(sigma_p / sigma_q) + (sigma_q^2 + (mu_q - mu_p)^2) / (2 sigma_p^2) - 1/2."""
    return (
        math.log(p.sigma / q.sigma)
        + (q.sigma**2 + (q.mean - p.mean) ** 2) / (2.0 * p.sigma**2)
        - 0.5
    )


def affinity_fit(pair, p0, p1):
    """(slope, residual) of the least-squares line of the pair's log-LR
    against the nominal log-LR log p1 - log p0 on 2001 points of the pair's
    support; residual is the largest absolute deviation from that line."""
    ys = np.linspace(*pair.support, 2001)
    nominal = np.asarray(p1.logpdf(ys) - p0.logpdf(ys), dtype=float)
    robust = np.asarray(pair.log_lr(ys), dtype=float)
    slope, intercept = np.polyfit(nominal, robust, 1)
    residual = float(np.max(np.abs(robust - (slope * nominal + intercept))))
    return float(slope), residual


def lr_level(q, lr: float) -> int:
    """Output level of an LR value under quantizer ``q``: left-closed
    intervals, so an LR on a threshold goes to the level above."""
    return int(np.searchsorted(np.asarray(q.thresholds), lr, side="right"))


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


def saddle_grid_reference(net, member_laws0, member_laws1, tol: float = 1e-9):
    """Full-grid reference for ``fusion.saddle_verify``, by enumeration.

    Enumerates the joint level space once and every member combination of
    both sides. A combination passes when its probability of deciding 1
    is on the right side of the LFD's at every fusion threshold (within
    ``tol``): at most the LFD's under H0, at least under H1. The forced
    decisions of ±inf levels count, and sums within ``TIE_TOL`` above the
    threshold decide 0, as in the library's rule. Returns
    (holds, dominance_ok, gaps), where ``gaps[(side, combo)]`` is
    P_LFD - P_member at the network's own threshold (negative on a
    violation) and combos run in ``itertools.product`` order.
    """
    from robust_fusion.fusion import TIE_TOL

    sums, has_pos, has_neg = np.zeros(1), np.zeros(1, bool), np.zeros(1, bool)
    for ch in net.channels:
        sums = np.add.outer(sums, np.where(np.isfinite(ch.llr), ch.llr, 0.0)).ravel()
        has_pos = np.logical_or.outer(has_pos, ch.llr == math.inf).ravel()
        has_neg = np.logical_or.outer(has_neg, ch.llr == -math.inf).ravel()
    finite = ~has_pos & ~has_neg
    # decide-1 indicator at every threshold where it can change, then at tau
    cuts = np.r_[-np.inf, np.unique(sums[finite])]
    decide = ~has_neg & (has_pos | (sums[None, :] > cuts[:, None]))
    decide_tau = ~has_neg & (has_pos | (sums > net.log_threshold + TIE_TOL))

    def joint(laws_per_sensor):
        """Joint level probabilities, one row per combination."""
        probs = np.ones((1, 1))
        for laws in laws_per_sensor:
            p = np.array([law.probs for law in laws])
            probs = (probs[:, None, :, None] * p[None, :, None, :]).reshape(
                probs.shape[0] * p.shape[0], -1
            )
        return probs

    gaps = {}
    dominance_ok = True
    for side, member_lists, lfd_laws in (
        ("false-alarm", member_laws0, [[ch.pmf0] for ch in net.channels]),
        ("miss", member_laws1, [[ch.pmf1] for ch in net.channels]),
    ):
        members, lfd = joint(member_lists), joint(lfd_laws)
        excess = members @ decide.T - lfd @ decide.T
        gap = lfd @ decide_tau - members @ decide_tau
        if side == "miss":
            excess, gap = -excess, -gap
        dominance_ok = dominance_ok and float(np.max(excess)) <= tol
        combos = itertools.product(*[range(len(lst)) for lst in member_lists])
        gaps.update(((side, combo), float(g)) for combo, g in zip(combos, gap))
    holds = min(gaps.values()) >= -tol and dominance_ok
    return holds, dominance_ok, gaps


def saddle_verify_rebuild(net, member_laws0, member_laws1, tol: float = 1e-9):
    """Reference for ``fusion.saddle_verify``: every trial rebuilt.

    The same one-pass search and per-sensor certificate, but each member
    trial folds a whole new :func:`fold_laws` of all K sensors, and each
    member's dominance is one :func:`atoms_stochastically_larger` call on
    two fresh ``AtomPmf``s. Returns a ``fusion.SaddleReport``.
    """
    from robust_fusion.distributions import AtomPmf
    from robust_fusion.fusion import SaddleReport
    from robust_fusion.lfd import WITNESS_TOL

    tau = net.log_threshold
    lfd_laws0 = [ch.pmf0 for ch in net.channels]
    lfd_laws1 = [ch.pmf1 for ch in net.channels]
    p_f_lfd = fold_laws(net.channels, lfd_laws0).prob_decide_one(tau)
    p_m_lfd = 1.0 - fold_laws(net.channels, lfd_laws1).prob_decide_one(tau)
    ranks = [np.unique(ch.llr, return_inverse=True)[1] for ch in net.channels]
    worst_gap, worst_side, worst_combo = math.inf, "false-alarm", ()
    dominance_ok = True
    n_checked = 0
    for side, member_lists, lfd_laws, sign in (
        ("false-alarm", member_laws0, lfd_laws0, 1),
        ("miss", member_laws1, lfd_laws1, -1),
    ):
        n_checked += math.prod(len(members) for members in member_lists)

        def gap(laws):
            p1 = fold_laws(net.channels, laws).prob_decide_one(tau)
            return p_f_lfd - p1 if sign > 0 else p_m_lfd - (1.0 - p1)

        laws = list(lfd_laws)
        combo = []
        for i, members in enumerate(member_lists):
            gaps = [gap(laws[:i] + [m] + laws[i + 1 :]) for m in members]
            least = min(gaps)
            combo.append(next(j for j, g in enumerate(gaps) if g <= least + WITNESS_TOL))
            laws[i] = members[combo[-1]]
        if gaps[combo[-1]] < worst_gap - WITNESS_TOL:
            worst_gap, worst_side, worst_combo = gaps[combo[-1]], side, tuple(combo)
        for rank, lfd_law, members in zip(ranks, lfd_laws, member_lists):
            lfd_atoms = AtomPmf(sign * rank, lfd_law.probs)
            for member in members:
                ok, _ = atoms_stochastically_larger(
                    lfd_atoms, AtomPmf(sign * rank, member.probs), tol
                )
                dominance_ok = dominance_ok and ok
    return SaddleReport(
        holds=worst_gap >= -tol and dominance_ok,
        worst_side=worst_side,
        worst_combo=worst_combo,
        worst_gap=worst_gap,
        p_false_alarm_lfd=p_f_lfd,
        p_miss_lfd=p_m_lfd,
        dominance_ok=dominance_ok,
        n_checked=n_checked,
        tol=tol,
    )


def _cdf_at(cdf, y: float) -> float:
    """cdf(y), exactly 0 and 1 at y = -inf and y = +inf."""
    return 1.0 if y == math.inf else 0.0 if y == -math.inf else cdf(y)


def batch_channels_reference(rules):
    """The channels of sensor rules of one pair and level count, built as
    one batch (the library's route before its per-rule build): one read of
    the pair's two laws with a cut row per rule, +inf padding a short row,
    Gaussian laws through one array of erfc values once the read needs 32
    cdf values, other laws through their scalar cdf; each (law, rule) row
    summed by segment level in one bincount. Then each rule's two rows are
    clipped at 0 and checked as laws, the levels with zero mass under both
    dropped with a warning, its part cached when its LLRs are finite and
    strictly rising (before the drop), and None returned where its
    per-level LLR falls."""
    import warnings

    from robust_fusion.distributions import _SQRT2, MASS_TOL, AtomPmf, DiscretePmf, GaussianSpec
    from robust_fusion.distributions import _check_law, _unchecked
    from robust_fusion.sensor import SensorChannel, _SensorPart

    pair, num_levels = rules[0].pair, rules[0].quantizer.num_levels
    width = max(len(rule.cuts) for rule in rules)
    ends, segments = [], []
    for rule in rules:
        pad = width - len(rule.cuts)
        ends.append([-math.inf, *rule.cuts, *[math.inf] * pad, math.inf])
        segments.append(rule.segment_levels.tolist() + rule.segment_levels[-1:].tolist() * pad)
    laws, ends = [pair.q0, pair.q1], np.array(ends)
    if 2 * len(rules) * width >= 32 and all(isinstance(law, GaussianSpec) for law in laws):
        z = [(law.mean - ends) / (law.sigma * _SQRT2) for law in laws]
        at = 0.5 * np.array([[[math.erfc(v) for v in row] for row in block.tolist()] for block in z])
    else:
        at = np.array([[[_cdf_at(law.cdf, c) for c in row] for row in ends.tolist()] for law in laws])
    weights = at[..., 1:] - at[..., :-1]
    masses = np.array(
        [[np.bincount(seg, w, num_levels) for seg, w in zip(segments, block)] for block in weights]
    ).swapaxes(0, 1)
    channels = []
    for rows in np.maximum(masses, 0.0):
        with np.errstate(divide="ignore", invalid="ignore"):
            llr = np.log(rows[1]) - np.log(rows[0])
        totals = rows.sum(axis=1)
        part = bool(np.all(np.isfinite(llr)) and np.all(llr[1:] > llr[:-1]))
        keep = (rows[0] != 0.0) | (rows[1] != 0.0)
        kept, law = tuple(range(num_levels)), bool(np.all(abs(totals - 1.0) <= MASS_TOL))
        if not keep.all():
            dropped = [level for level in kept if not keep[level]]
            warnings.warn(f"dropping levels {dropped} with zero mass under both hypotheses", RuntimeWarning)
            kept = tuple(level for level in kept if keep[level])
            rows, llr, law = rows[:, keep], llr[keep], False
        if not law:
            for row in rows:
                _check_law(row)
        pmf0 = _unchecked(DiscretePmf, levels=kept, probs=rows[0])
        pmf1 = _unchecked(DiscretePmf, levels=kept, probs=rows[1])
        channel = _unchecked(SensorChannel, pmf0=pmf0, pmf1=pmf1, llr=llr)
        if part:
            channel.__dict__["part"] = _SensorPart(AtomPmf._from_sorted(llr, rows), np.ones(2), totals)
        channels.append(channel if llr_monotone_check(channel) else None)
    return channels


def member_channel_reference(member, pair, q, levels=None):
    """Reference for each row of ``sensor.member_laws``: the per-member
    route.

    Re-derives the observation-axis cuts from (pair, q) for every member,
    clamps every boundary (+inf included) to the support, and places a
    point-contaminated member's atom by quantizing its likelihood ratio
    rather than by the segment that holds it. A log threshold within
    ``_LLR_SLACK`` of a clip level is lowered by ``_LLR_SLACK``, as in the
    library. Agrees with the library bit for bit unless a threshold lies
    within ``_LLR_SLACK`` above a clip level or above the whole log-LR
    range. A quadratic log-LR is cut at :func:`log_density_crossing_cuts`
    (grid bisection, not the library's closed form), each segment taking
    the level of its midpoint; those laws agree with the library's to
    rounding where the grid sees every crossing.
    """
    from robust_fusion.distributions import pmf_from_weights
    from robust_fusion.lfd import _LLR_SLACK, ClippedAffineLlr

    contaminated = isinstance(member, ContaminatedGaussian)
    cdf = member.nominal.cdf if contaminated else member.cdf
    if isinstance(pair.log_lr, ClippedAffineLlr):
        llr = pair.log_lr
        lo, hi = pair.support

        def cut(log_t):
            # rounding slack only next to a flat (clipped) stretch
            bottom, top = llr.offset + llr.lo, llr.offset + llr.hi
            if min(abs(log_t - bottom), abs(log_t - top)) <= _LLR_SLACK:
                log_t -= _LLR_SLACK
            return min(max(llr.boundary(log_t), lo), hi)

        cuts = [cut(math.log(t)) if t > 0.0 else -math.inf for t in q.thresholds]
        segment_levels = np.arange(q.num_levels)
    else:
        log_t = np.array([math.log(t) if t > 0.0 else -math.inf for t in q.thresholds])
        cuts = log_density_crossing_cuts(pair, q)
        edges = np.array([pair.support[0], *cuts, pair.support[1]])
        mid_llr = np.asarray(pair.log_lr(0.5 * (edges[:-1] + edges[1:])), dtype=float)
        segment_levels = np.searchsorted(log_t, mid_llr, side="right")
    weights = np.diff([0.0, *(_cdf_at(cdf, c) for c in cuts), 1.0])
    mass = np.bincount(segment_levels, weights, q.num_levels)
    if contaminated:
        mass = (1.0 - member.eps) * mass
        mass[lr_level(q, math.exp(float(pair.log_lr(member.atom))))] += member.eps
    mass = np.maximum(mass, 0.0)
    all_levels = tuple(range(q.num_levels))
    if levels is not None and levels != all_levels:
        keep = [all_levels.index(l) for l in levels]
        return pmf_from_weights(levels, mass[keep])
    return pmf_from_weights(all_levels, mass)


def member_cdf(member):
    """A probe member's cdf P[Y <= x]; a point-contaminated member's atom
    counts at x >= atom (the step cdf, right-closed)."""
    if not isinstance(member, ContaminatedGaussian):
        return member.cdf
    return lambda x: (1.0 - member.eps) * member.nominal.cdf(x) + member.eps * (x >= member.atom)


def lower_level_sets(pair, t_values):
    """{y : log_lr(y) <= t} for each t, as increasing disjoint intervals (a, b).

    A clipped-affine log-LR gives one half-line up to inf{y : log_lr(y) > t},
    flat stretches equal to t included. A quadratic one is split at its
    crossings of t, and each piece on which it is <= t is kept.
    """
    from robust_fusion.lfd import ClippedAffineLlr

    llr = pair.log_lr
    if isinstance(llr, ClippedAffineLlr):

        def strict_boundary(t):
            if t < llr.offset + llr.lo:
                return -math.inf
            if t >= llr.offset + llr.hi:
                return math.inf
            return llr.mid + (t - llr.offset) / llr.slope

        return [[(-math.inf, strict_boundary(t))] for t in t_values]
    sets = []
    for t in t_values:
        cuts, inner = llr.split([t])
        ends = [-math.inf, *cuts, math.inf]
        sets.append([(ends[i], ends[i + 1]) for i in np.flatnonzero(inner <= t)])
    return sets


def level_set_masses(cdf, level_sets):
    """A law's mass on each level set, as cdf differences per interval."""
    masses = []
    for intervals in level_sets:
        mass = 0.0
        for a, b in intervals:
            mass += _cdf_at(cdf, b)
            if a != -math.inf:
                mass -= cdf(a)
        masses.append(mass)
    return masses


def joint_boundedness_reference(pair, class0_members, class1_members, t_grid, tol: float = 1e-9):
    """Reference for ``lfd.joint_boundedness_check``: the per-threshold route.

    Reads Q[log_lr <= t] per member and threshold from the level sets
    {log_lr <= t} (:func:`lower_level_sets`) and each member's step cdf
    (:func:`member_cdf`), lists the gaps in h0-before-h1, member and
    threshold order, and takes as witness the first positive gap within
    ``WITNESS_TOL`` of the largest. Returns (holds, worst, witness) with
    worst the witness's gap (0.0 without one) and witness (side, member
    index, t, gap), or None when the sandwich holds.
    """
    from robust_fusion.lfd import WITNESS_TOL

    gaps = []  # (side, member index, t, gap)
    t_values = [float(t) for t in t_grid]
    level_sets = lower_level_sets(pair, t_values)
    for side, members, lfd, sign in (
        ("h0", class0_members, pair.q0, +1.0),
        ("h1", class1_members, pair.q1, -1.0),
    ):
        lfd_vals = level_set_masses(lfd.cdf, level_sets)
        for idx, member in enumerate(members):
            member_vals = level_set_masses(member_cdf(member), level_sets)
            for t, lfd_val, member_val in zip(t_values, lfd_vals, member_vals):
                gaps.append((side, idx, t, sign * (lfd_val - member_val)))
    largest = max((g[3] for g in gaps), default=0.0)
    witness = next((g for g in gaps if g[3] > 0.0 and g[3] >= largest - WITNESS_TOL), None)
    worst = 0.0 if witness is None else witness[3]
    holds = worst <= tol
    return holds, worst, None if holds else witness


def mixture_quantile_reference(pair, p: float) -> float:
    """The first float of the pair's support where the equal-mixture cdf
    0.5 * (Q0 + Q1) reaches p, bisected to adjacent floats."""
    a, b = pair.support
    while a < 0.5 * (a + b) < b:
        m = 0.5 * (a + b)
        if 0.5 * (pair.q0.cdf(m) + pair.q1.cdf(m)) < p:
            a = m
        else:
            b = m
    return b


def huber_clip_reference(c0, c1):
    """(c_lo, c_hi) of ``lfd.huber_clipped_lfd`` from the normalization
    equations written in numpy scalars, on the same bracket, solver and
    tolerance; raises ValueError where the clip points cross."""
    from robust_fusion._roots import solve_decreasing, solve_increasing

    p0, p1, sigma = c0.nominal, c1.nominal, c0.nominal.sigma
    slope = (p1.mean - p0.mean) / (sigma * sigma)
    mid = 0.5 * (p0.mean + p1.mean)
    lo, hi = p0.mean - 13.0 * sigma, p1.mean + 13.0 * sigma

    def llr(y):
        return 0.0 + np.clip(slope * (np.asarray(y, dtype=float) - mid), -math.inf, math.inf)

    def upper_eq(y):
        with np.errstate(over="ignore"):
            return float(np.exp(-llr(y))) * p1.sf(y) - p0.sf(y)

    def lower_eq(y):
        with np.errstate(over="ignore"):
            return float(np.exp(llr(y))) * p0.cdf(y) - p1.cdf(y)

    y_hi = math.inf
    if c0.eps > 0.0:
        y_hi = solve_decreasing(upper_eq, lo, hi, c0.eps / (1.0 - c0.eps), tol=1e-13)
    y_lo = -math.inf
    if c1.eps > 0.0:
        y_lo = solve_increasing(lower_eq, lo, hi, c1.eps / (1.0 - c1.eps), tol=1e-13)
    if not y_lo < y_hi:
        raise ValueError("contamination too large")
    c_lo = math.exp(float(llr(y_lo))) if math.isfinite(y_lo) else 0.0
    c_hi = math.exp(float(llr(y_hi))) if math.isfinite(y_hi) else math.inf
    return c_lo, c_hi


def log_density_crossing_cuts(pair, q):
    """Observation-axis cuts of a Gaussian LFD pair at the quantizer's thresholds.

    The log-LR is the literal difference log q1 - log q0 of the pair's
    Gaussians, tabulated on 2001 points of the support; each grid cell
    where it crosses a log threshold (>= is above) is bisected to adjacent
    floats and the first float above is the cut. Crossings outside the
    support or narrower than a grid cell are missed.
    """
    q0, q1 = pair.q0, pair.q1

    def llr(y):
        return q1.logpdf(y) - q0.logpdf(y)

    xs = np.linspace(*pair.support, 2001)
    fx = np.asarray(llr(xs), dtype=float)
    cuts = []
    for t in q.thresholds:
        if t <= 0.0:
            continue
        level = math.log(t)
        above = fx >= level
        for i in np.flatnonzero(above[1:] != above[:-1]):
            a, b = float(xs[i]), float(xs[i + 1])
            while a < 0.5 * (a + b) < b:
                m = 0.5 * (a + b)
                if (float(llr(m)) >= level) == above[i]:
                    a = m
                else:
                    b = m
            cuts.append(b)
    return sorted(cuts)


def quad_level_masses(pair, q, lo: float = -14.0, hi: float = 15.0, points: int = 20001):
    """(H0, H1) per-level masses of quantizer ``q`` on a Gaussian LFD pair,
    by adaptive quadrature over [lo, hi].

    The log-LR is the literal difference log q1 - log q0 of the pair's
    Gaussians. Its crossings of each log
    threshold are found by a dense scan of [lo, hi] plus brentq; each
    piece between them goes to the level of the log-LR at its midpoint,
    and each density is integrated over it with quad.
    """
    from scipy.optimize import brentq

    q0, q1 = pair.q0, pair.q1

    def llr(y):
        return q1.logpdf(y) - q0.logpdf(y)

    ys = np.linspace(lo, hi, points)
    cuts = [lo, hi]
    for t in q.thresholds:
        g = lambda y, lt=math.log(t): float(llr(y)) - lt
        vals = np.asarray(llr(ys), dtype=float) - math.log(t)
        for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
            cuts.append(brentq(g, ys[i], ys[i + 1], xtol=1e-14))
    cuts = sorted(set(cuts))
    masses = np.zeros((2, q.num_levels))
    for a, b in zip(cuts, cuts[1:]):
        level = lr_level(q, math.exp(float(llr(0.5 * (a + b)))))
        for h, law in enumerate((q0, q1)):
            masses[h, level] += quad(lambda y: float(law.pdf(y)), a, b, limit=200)[0]
    return masses


# -- the per-hypothesis fold ----------------------------------------------------
# The fusion layer folds a network's H0 and H1 laws once, as two mass rows on
# one support. Below is the fold it replaced, one law at a time on plain 1-D
# arrays, kept as the bit-for-bit reference of each row. ``stats`` counts the
# exact-duplicate merges ("duplicates") and close-atom merges ("merges") the
# folds make, so a test can show that its inputs reach both.


def _sorted_law_reference(atoms, masses, stats):
    """(atoms, masses) stably sorted, exact duplicates summed by bincount."""
    order = np.argsort(atoms, kind="stable")
    atoms, masses = atoms[order], masses[order]
    first = np.concatenate(([True], atoms[1:] != atoms[:-1]))
    if not np.all(first):
        stats["duplicates"] += 1
        masses = np.bincount(np.cumsum(first) - 1, weights=masses)
        atoms = atoms[first]
    return atoms, masses


def convolve_reference(a, b, stats):
    """(atoms, masses) of the independent sum of two 1-D laws (atoms, masses)."""
    from robust_fusion.ordering import ATOM_BIN_WIDTH

    sums, products = np.add.outer(a[0], b[0]).ravel(), np.multiply.outer(a[1], b[1]).ravel()
    atoms, masses = _sorted_law_reference(sums, products, stats)
    if atoms.shape[0] < 2:
        return atoms, masses
    starts = np.flatnonzero(np.concatenate(([True], np.diff(atoms) >= ATOM_BIN_WIDTH)))
    if starts.shape[0] == atoms.shape[0]:
        return atoms, masses
    stats["merges"] += 1
    sizes = np.diff(np.append(starts, atoms.shape[0]))
    merged_mass = np.add.reduceat(masses, starts)
    merged_pos = np.add.reduceat(atoms, starts) / sizes
    merged_pos[sizes == 1] = atoms[starts[sizes == 1]]
    return merged_pos, merged_mass


class PartReference(NamedTuple):
    finite: tuple  # (atoms, masses) of the finite-LLR levels
    no_minus: float
    finite_mass: float


def part_reference(llr, probs, stats) -> PartReference:
    """One sensor's finite atoms and ±inf masses under one level law."""
    finite = np.isfinite(llr)
    atoms = _sorted_law_reference(llr[finite], probs[finite], stats)
    no_minus = 1.0 - float(np.sum(probs[llr == -math.inf]))
    return PartReference(atoms, no_minus, float(np.sum(atoms[1])))


_EMPTY_SUM = (np.zeros(1), np.ones(1))  # the left half of a one-sensor law


class LawReference(NamedTuple):
    left: tuple  # (atoms, masses); _EMPTY_SUM for an empty half
    right: tuple
    forced_one: float

    def finite(self, stats):
        """(atoms, masses) of the whole finite sum: the halves convolved."""
        if self.left is _EMPTY_SUM:
            return self.right
        return convolve_reference(self.left, self.right, stats)

    def prob_decide_one(self, tau):
        """P[decide 1] at ``tau`` (float or array) by meet-in-the-middle."""
        from robust_fusion.fusion import TIE_TOL

        tail = np.concatenate([np.cumsum(self.right[1][::-1])[::-1], [0.0]])
        cut = (np.asarray(tau)[..., None] + TIE_TOL) - self.left[0]
        shares = tail[np.searchsorted(self.right[0], cut, side="right")]
        p_one = self.forced_one + np.dot(shares, self.left[1])
        return float(p_one) if np.ndim(tau) == 0 else p_one


def fold_reference(parts, stats, split: bool = True) -> LawReference:
    """The law of the parts' sum, split at len // 2 (or not at all) into
    halves, each left-folded in order."""
    half = len(parts) // 2 if split else 0

    def fold(ps):
        law = ps[0].finite
        for p in ps[1:]:
            law = convolve_reference(law, p.finite, stats)
        return law

    left = fold(parts[:half]) if half else _EMPTY_SUM
    no_minus = all_finite = 1.0
    for part in parts:
        no_minus *= part.no_minus
        all_finite *= part.finite_mass
    return LawReference(left, fold(parts[half:]), no_minus - all_finite)


def law_reference(channels, laws, stats, split: bool = True) -> LawReference:
    """The LLR-sum law of the channels under one list of level laws."""
    parts = [part_reference(ch.llr, law.probs, stats) for ch, law in zip(channels, laws)]
    return fold_reference(parts, stats, split)


def clamped(p: float) -> float:
    """A probability that rounding put outside [0, 1], moved back to its nearest end."""
    return min(max(p, 0.0), 1.0)


def exact_error_reference(net, stats, laws0=None, laws1=None):
    """``fusion.exact_error(net, cross_check=False)``, or :func:`member_error`
    under ``laws0``/``laws1``, with one fold per hypothesis; P_F and P_M
    are clamped into [0, 1] before P_E is formed from them."""
    from robust_fusion.fusion import ErrorReport

    laws0 = [ch.pmf0 for ch in net.channels] if laws0 is None else laws0
    laws1 = [ch.pmf1 for ch in net.channels] if laws1 is None else laws1
    p_f = clamped(law_reference(net.channels, laws0, stats).prob_decide_one(net.log_threshold))
    p_m = 1.0 - law_reference(net.channels, laws1, stats).prob_decide_one(net.log_threshold)
    p_m = clamped(p_m)
    p_e = net.prior0 * p_f + (1.0 - net.prior0) * p_m
    return ErrorReport(p_false_alarm=p_f, p_miss=p_m, p_error=p_e, method="exact-convolution")


def threshold_scan_reference(law0, law1, prior0, stats):
    """``best_fusion_threshold`` of two separately folded laws, the
    candidates the union of both supports and one below, or 0.0 alone when
    the sums have no finite atom: (log threshold, P_E)."""
    atoms = np.union1d(law0.finite(stats)[0], law1.finite(stats)[0])
    candidates = np.concatenate([[atoms[0] - 1.0] if len(atoms) else [0.0], atoms])
    p_f = law0.prob_decide_one(candidates)
    p_m = 1.0 - law1.prob_decide_one(candidates)
    p_e = prior0 * p_f + (1.0 - prior0) * p_m
    best = int(np.argmin(p_e))
    return float(candidates[best]), float(p_e[best])


def _fuse_one_given_level_reference(others, llr, tau, stats):
    """P(fuse 1 | level d) at ``tau`` under one hypothesis's parts."""
    from robust_fusion.fusion import TIE_TOL

    taus = np.array([tau])
    if not others:
        return (llr > taus[:, None] + TIE_TOL).astype(float)[0]
    a = np.zeros((1, len(llr)))
    finite = np.isfinite(llr)
    a[:, finite] = fold_reference(others, stats).prob_decide_one(taus[:, None] - llr[finite])
    a[:, llr == math.inf] = math.prod(part.no_minus for part in others)
    return a[0]


def saddle_verify_reference(net, member_laws0, member_laws1, stats, tol: float = 1e-9):
    """``fusion.saddle_verify`` with each side walked on its own: one pass
    per side, each sensor folding the others of that side alone. The LFD
    P_F and P_M are clamped into [0, 1]."""
    from robust_fusion.fusion import SaddleReport, _dominance_gaps
    from robust_fusion.lfd import WITNESS_TOL

    tau = net.log_threshold
    lfd_laws0 = [ch.pmf0 for ch in net.channels]
    lfd_laws1 = [ch.pmf1 for ch in net.channels]
    p_f_lfd = clamped(law_reference(net.channels, lfd_laws0, stats).prob_decide_one(tau))
    p_m_lfd = clamped(1.0 - law_reference(net.channels, lfd_laws1, stats).prob_decide_one(tau))
    ranks = [np.unique(ch.llr, return_inverse=True)[1] for ch in net.channels]
    worst_gap, worst_side, worst_combo = math.inf, "false-alarm", ()
    dominance_ok = True
    n_checked = 0
    for side, member_lists, lfd_laws, sign in (
        ("false-alarm", member_laws0, lfd_laws0, 1),
        ("miss", member_laws1, lfd_laws1, -1),
    ):
        member_lists = [np.ascontiguousarray(rows, dtype=float) for rows in member_lists]
        n_checked += math.prod(len(members) for members in member_lists)
        parts = [part_reference(ch.llr, m.probs, stats) for ch, m in zip(net.channels, lfd_laws)]
        combo = []
        carried = 0.0
        for i, (ch, probs) in enumerate(zip(net.channels, member_lists)):
            a = _fuse_one_given_level_reference(parts[:i] + parts[i + 1 :], ch.llr, tau, stats)
            current = lfd_laws[i].probs
            gaps = carried + sign * ((current - probs) @ a)
            j = int(np.flatnonzero(gaps <= np.min(gaps) + WITNESS_TOL)[0])
            combo.append(j)
            carried = float(gaps[j])
            parts[i] = part_reference(ch.llr, probs[j], stats)
            worst = _dominance_gaps(sign * ranks[i], current, probs)
            dominance_ok = dominance_ok and bool(np.all(worst <= tol))
        if carried < worst_gap - WITNESS_TOL:
            worst_gap, worst_side, worst_combo = carried, side, tuple(combo)
    return SaddleReport(
        holds=worst_gap >= -tol and dominance_ok,
        worst_side=worst_side,
        worst_combo=worst_combo,
        worst_gap=worst_gap,
        p_false_alarm_lfd=p_f_lfd,
        p_miss_lfd=p_m_lfd,
        dominance_ok=dominance_ok,
        n_checked=n_checked,
        tol=tol,
    )


def save_scenario(scenario, path) -> None:
    """Write ``scenario`` as the JSON document :func:`robust_fusion.load_scenario` reads."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.to_dict(), fh, indent=2)
        fh.write("\n")


def llr_monotone_check(ch) -> bool:
    """True when the channel's per-level LLR weights are nondecreasing."""
    return bool((ch.llr[1:] >= ch.llr[:-1]).all())


# -- probe families of the classes certified in closed form -----------------
#
# Band and contamination sensors are certified exactly: their boundedness
# over the whole class (``boundedness_gaps``), their saddle row with their
# channel's own laws alone. The probe families below are the brute force
# that certified them before, kept as the check that no probe beats the
# exact verdict.


@dataclass(frozen=True)
class ContaminatedGaussian:
    """Contamination-class member (1 - eps) * nominal + eps * point mass."""

    nominal: object
    eps: float
    atom: float


def band_members(cls, n: int) -> list:
    """Gaussian members of a mean band on an n-point mean grid (band
    endpoints included); the band's midpoint when n == 1."""
    from robust_fusion.distributions import GaussianSpec

    if n < 1:
        raise ValueError("need at least one member")
    if n == 1:
        return [GaussianSpec(0.5 * (cls.mu_lo + cls.mu_hi), cls.sigma)]
    return [GaussianSpec(float(m), cls.sigma) for m in np.linspace(cls.mu_lo, cls.mu_hi, n)]


def contamination_members(cls, atoms) -> list:
    """Probes of a contamination class: the nominal, then one point-mass
    contamination per atom."""
    return [cls.nominal, *(ContaminatedGaussian(cls.nominal, cls.eps, float(z)) for z in atoms)]


def probe_members(built, side: int, n: int) -> list:
    """The probes of a built sensor's class for hypothesis ``side``: the LFD
    itself when ``n == 1``; band classes an n-point mean grid, contamination
    classes the nominal and max(2, n - 1) point masses across the pair's
    support, KL balls ``built.members``; none for an explicit-pmf sensor."""
    from robust_fusion.lfd import EpsContaminationClass, GaussianBandClass

    if n < 1:
        raise ValueError("need at least one member")
    if built.rule is None:
        return []
    if n == 1:
        return [built.pair.q0 if side == 0 else built.pair.q1]
    cls = built.classes[side]
    if isinstance(cls, GaussianBandClass):
        return band_members(cls, n)
    if isinstance(cls, EpsContaminationClass):
        return contamination_members(cls, np.linspace(*built.pair.support, max(2, n - 1)))
    return built.members(side, n)


def probe_level_masses(laws, cuts, segment_levels, num_levels: int, tails: bool = False) -> np.ndarray:
    """``lfd.level_masses`` of laws that may be :class:`ContaminatedGaussian`:
    a contaminated member is 1 - eps times its nominal's masses (its
    nominal read once with the other laws), plus eps at the level of the
    segment that holds its atom (left-closed: an atom on a cut joins the
    segment above)."""
    from robust_fusion.lfd import level_masses

    bases = [law.nominal if isinstance(law, ContaminatedGaussian) else law for law in laws]
    mass = level_masses(bases, cuts, segment_levels, num_levels, tails)
    contaminated = [i for i, law in enumerate(laws) if isinstance(law, ContaminatedGaussian)]
    if contaminated:
        eps = np.array([laws[i].eps for i in contaminated])
        atoms = np.array([laws[i].atom for i in contaminated])
        mass[contaminated] *= (1.0 - eps)[:, None]
        where = np.searchsorted(np.asarray(cuts, dtype=float), atoms, side="right")
        mass[contaminated, np.asarray(segment_levels)[where]] += eps
    return mass


def probe_member_laws(members, rule, levels=None) -> np.ndarray:
    """``sensor.member_laws`` of probes that may be point-contaminated: their
    :func:`probe_level_masses` at the rule's cuts, each row clipped at 0,
    restricted to ``levels`` (mass on dropped levels must be negligible)
    and normalized."""
    mass = probe_level_masses(members, rule.cuts, rule.segment_levels, rule.quantizer.num_levels)
    mass = np.maximum(mass, 0.0)
    levels = range(mass.shape[1]) if levels is None else levels
    kept = np.ascontiguousarray(mass[:, list(levels)])
    total = kept.sum(axis=1)
    lost = mass.sum(axis=1) - total
    if np.any(lost > 1e-12):
        raise ValueError(f"member places mass {np.max(lost):.3e} on levels dropped from the channel")
    return kept / total[:, None]


def probe_laws(built, side: int, n: int) -> np.ndarray:
    """The channel laws of :func:`probe_members` through the built sensor's
    rule, one row per probe; an explicit-pmf sensor's one channel law."""
    members = probe_members(built, side, n)
    if not members:
        return built.member_laws(side, [])
    return probe_member_laws(members, built.rule, built.channel.levels)


def probe_below(pair, laws, t_grid, tails: bool = False):
    """Each law's P(log_lr < t) at each t: cumulative
    :func:`probe_level_masses` at the pair's log-LR cut at the t grid, as
    ``lfd.joint_boundedness_check`` reads its members; with ``tails``, from
    tail-exact masses, and with each law's P(log_lr >= t) too, as the
    pair (below, at or above), the latter summed from the top."""
    from robust_fusion.lfd import cut_log_lr

    t = np.asarray(t_grid, dtype=float)
    cuts, segment_levels = cut_log_lr(pair, t)
    mass = probe_level_masses(laws, cuts, segment_levels, len(t) + 1, tails)
    below = np.cumsum(mass, axis=1)[:, :-1]
    return (below, np.cumsum(mass[:, ::-1], axis=1)[:, -2::-1]) if tails else below


def probe_boundedness_check(pair, class0_members, class1_members, t_grid):
    """``lfd.joint_boundedness_check`` over probes that may be
    point-contaminated, each side's LFD and members read by
    :func:`probe_below`: the same gaps, the first positive gap within
    ``WITNESS_TOL`` of the largest as witness, and ``CERTIFICATE_TOL`` as
    the verdict's slack."""
    from robust_fusion.lfd import (
        CERTIFICATE_TOL,
        WITNESS_TOL,
        BoundednessReport,
        BoundednessWitness,
    )

    t = np.asarray(t_grid, dtype=float)
    gaps, sides = [], []
    for side, members, lfd, sign in (
        ("h0", class0_members, pair.q0, +1.0),
        ("h1", class1_members, pair.q1, -1.0),
    ):
        if len(members):
            read = probe_below(pair, [lfd, *members], t)
            gaps += [sign * (read[0] - row) for row in read[1:]]
            sides += [(side, idx, m) for idx, m in enumerate(members)]
    flat = np.concatenate(gaps) if gaps else np.zeros(0)
    hits = np.flatnonzero((flat > 0.0) & (flat >= flat.max(initial=0.0) - WITNESS_TOL))
    if not hits.size:
        return BoundednessReport(True, 0.0, CERTIFICATE_TOL)
    i = int(hits[0])
    worst = float(flat[i])
    side, idx, member = sides[i // len(t)]
    holds = worst <= CERTIFICATE_TOL
    witness = None if holds else BoundednessWitness(side, idx, member, float(t[i % len(t)]), worst)
    return BoundednessReport(holds, worst, CERTIFICATE_TOL, witness)


def bernoulli_kl_root_reference(p: float, eps: float) -> float:
    """The root x >= p of kl(x || p) = eps, by ``scipy.optimize.brentq`` on
    kl read in 80-digit decimal arithmetic, so nothing cancels as x -> p:
    1 where kl(1 || p) is within eps, and p where eps = 0 or p is 0 or 1.
    p is clipped into [0, 1]."""
    from decimal import Decimal, localcontext

    from scipy.optimize import brentq

    def kl(x: float) -> Decimal:
        with localcontext() as ctx:
            ctx.prec = 80
            xd, pd = Decimal(x), Decimal(p)
            head = xd * (xd / pd).ln()
            tail = (1 - xd) * ((1 - xd) / (1 - pd)).ln() if xd < 1 else Decimal(0)
            return head + tail - Decimal(eps)

    p = min(max(float(p), 0.0), 1.0)
    if eps == 0.0 or p in (0.0, 1.0):
        return p
    if kl(1.0) <= 0:
        return 1.0
    return brentq(lambda x: float(kl(x)), p, 1.0, xtol=1e-15, maxiter=500)
