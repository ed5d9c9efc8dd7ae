"""Sensor decision rules: robust-LR front end, multilevel quantization,
per-level LLR weights, and randomized-binary admissibility.

A sensor maps its observation through the robust likelihood ratio and
quantizes that value with strictly increasing thresholds into levels
0..D. The per-level LLR weights are conditional expectations of the LR
over the threshold intervals, hence automatically nondecreasing in the
level; this module computes them exactly and enforces that property as a
postcondition. A :class:`SensorRule` cuts the observation axis once per
(pair, quantizer); the LFD channel, every class member's law and every
point atom are read off those cuts, so all pass through one fixed rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._roots import crossings, solve_increasing
from .distributions import DiscretePmf, pmf_from_weights, trapezoid
from .lfd import ClippedAffineLlr, ContaminatedGaussian, LfdPair, _cdf_at

_LLR_SLACK = 1e-12


@dataclass(frozen=True)
class Quantizer:
    """Strictly increasing thresholds on the likelihood-ratio axis.

    D = len(thresholds) thresholds partition the LR axis into D + 1 output
    levels 0..D; an empty threshold tuple is the single-level
    (uninformative) quantizer.
    """

    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        thresholds = tuple(float(t) for t in self.thresholds)
        object.__setattr__(self, "thresholds", thresholds)
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")

    @property
    def num_levels(self) -> int:
        return len(self.thresholds) + 1


def quantize(q: Quantizer, x: float) -> int:
    """Output level for an LR-axis value.

    Intervals are left-closed: level d covers t_{d-1} <= x < t_d, level 0
    covers x < t_0 and the top level covers x >= t_{D-1}, so the map is
    total (the boundary convention costs zero probability for continuous
    laws).
    """
    return int(np.searchsorted(np.asarray(q.thresholds), x, side="right"))


@dataclass(frozen=True, eq=False)
class SensorChannel:
    """Per-hypothesis output laws of one sensor and its derived LLR weights.

    ``llr`` is always log pmf1 - log pmf0, level by level (+/-inf where one
    law has no mass). The labels need not follow LLR order: every fusion
    path reads only LLR values, so a channel evaluates exactly like its
    LLR-sorted relabeling.
    """

    pmf0: DiscretePmf
    pmf1: DiscretePmf
    llr: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.pmf0.levels != self.pmf1.levels:
            raise ValueError("pmf0 and pmf1 must share the same level set")
        both_zero = (self.pmf0.probs == 0.0) & (self.pmf1.probs == 0.0)
        if np.any(both_zero):
            raise ValueError(
                "levels with zero mass under both hypotheses must be dropped"
            )
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "llr", np.log(self.pmf1.probs) - np.log(self.pmf0.probs))

    @property
    def levels(self) -> tuple[int, ...]:
        return self.pmf0.levels

    def llr_of(self, level: int) -> float:
        try:
            return float(self.llr[self.levels.index(level)])
        except ValueError:
            raise ValueError(f"level {level} not in channel levels {self.levels}") from None


def _build_channel(
    levels: Sequence[int], mass0: np.ndarray, mass1: np.ndarray
) -> SensorChannel:
    mass0 = np.maximum(np.asarray(mass0, dtype=float), 0.0)
    mass1 = np.maximum(np.asarray(mass1, dtype=float), 0.0)
    keep = ~((mass0 == 0.0) & (mass1 == 0.0))
    if not np.all(keep):
        dropped = [int(l) for l, k in zip(levels, keep) if not k]
        warnings.warn(
            f"dropping levels {dropped} with zero mass under both hypotheses",
            RuntimeWarning,
            stacklevel=3,
        )
        levels = [l for l, k in zip(levels, keep) if k]
        mass0 = mass0[keep]
        mass1 = mass1[keep]
    return SensorChannel(
        pmf0=DiscretePmf(tuple(int(l) for l in levels), mass0),
        pmf1=DiscretePmf(tuple(int(l) for l in levels), mass1),
    )


def channel_from_pmfs(pmf0: DiscretePmf, pmf1: DiscretePmf) -> SensorChannel:
    """Channel from explicitly given per-hypothesis output laws, in any label order."""
    if pmf0.levels != pmf1.levels:
        raise ValueError("pmf0 and pmf1 must share the same level set")
    return _build_channel(pmf0.levels, pmf0.probs, pmf1.probs)


def level_boundaries(pair: LfdPair, q: Quantizer) -> list[float]:
    """Observation-axis boundary for each threshold of a clipped-affine log-LR.

    boundary[d] = inf{y : LR(y) >= t_d}, or -inf for t_d <= 0; finite
    values and -inf are clamped to the pair's support (the mass outside is
    below 1e-15 of the total), while +inf (no y reaches t_d) stays, so the
    levels above get no mass. The :class:`ClippedAffineLlr` is inverted in
    closed form, exactly, except that a log threshold within
    ``_LLR_SLACK`` of a clip level is lowered by ``_LLR_SLACK`` first: a
    threshold that only exp/log rounding separates from a flat (clipped)
    LR stretch puts that stretch in the level above, as the left-closed
    intervals require. Any other log-LR raises ValueError:
    :class:`SensorRule` cuts it at its crossings instead.
    """
    llr = pair.log_lr
    if not isinstance(llr, ClippedAffineLlr):
        raise ValueError("level boundaries need a clipped-affine log-LR")
    lo, hi = pair.support
    flats = (llr.offset + llr.lo, llr.offset + llr.hi)

    def cut(t: float) -> float:
        if t <= 0.0:
            return -math.inf
        s = math.log(t)
        if any(abs(s - flat) <= _LLR_SLACK for flat in flats):
            s -= _LLR_SLACK
        b = llr.boundary(s)
        return b if b == math.inf else min(max(b, lo), hi)

    return [cut(t) for t in q.thresholds]


@dataclass(frozen=True, eq=False)
class SensorRule:
    """One sensor's quantizer written on the observation axis.

    ``cuts`` split the axis into segments and ``segment_levels[i]`` is the
    output level of the segment between ``cuts[i-1]`` (inclusive) and
    ``cuts[i]``. A clipped-affine log-LR (band, contamination and
    equal-variance KL pairs) has one closed-form cut per threshold
    (:func:`level_boundaries`), segment d being level d. Any other log-LR
    is cut at every threshold crossing on ``grid`` (default: the pair's
    grid), and each segment goes to the level of its midpoint; crossings
    narrower than a grid cell can be missed.
    """

    pair: LfdPair
    quantizer: Quantizer
    grid: np.ndarray | None = None
    cuts: tuple[float, ...] = field(init=False)
    segment_levels: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        pair, q = self.pair, self.quantizer
        if isinstance(pair.log_lr, ClippedAffineLlr):
            cuts, levels = level_boundaries(pair, q), np.arange(q.num_levels)
        else:
            xs = pair.grid() if self.grid is None else np.asarray(self.grid, dtype=float)
            fx = np.asarray(pair.log_lr(xs), dtype=float)
            log_t = np.array([math.log(t) if t > 0.0 else -math.inf for t in q.thresholds])
            cuts = sorted(c for s in log_t for c in crossings(pair.log_lr, xs, fx, s))
            edges = np.array([xs[0], *cuts, xs[-1]])
            mid_llr = np.asarray(pair.log_lr(0.5 * (edges[:-1] + edges[1:])), dtype=float)
            levels = np.searchsorted(log_t, mid_llr, side="right")
        object.__setattr__(self, "cuts", tuple(cuts))
        object.__setattr__(self, "segment_levels", levels)

    def masses(self, cdf: Callable[[float], float]) -> np.ndarray:
        """Per-level mass of a law: exact cdf differences between the cuts."""
        weights = np.diff([0.0, *(_cdf_at(cdf, c) for c in self.cuts), 1.0])
        return np.bincount(self.segment_levels, weights, self.quantizer.num_levels)

    def level_of(self, y: float) -> int:
        """Output level of the observation y."""
        return int(self.segment_levels[np.searchsorted(self.cuts, y, side="right")])


def channel_from_rule(rule: SensorRule) -> SensorChannel:
    """Push the rule's LFD pair through its quantizer on the robust-LR axis.

    Level probabilities are the LFDs' masses under the rule, exact cdf
    differences between observation-axis cuts.

    Levels with zero mass under both LFDs are dropped with a warning;
    levels with zero mass under exactly one keep a +/-inf LLR sentinel.
    The per-level LLR must come out nondecreasing (the weight of level d
    is the LR's conditional mean over [t_{d-1}, t_d), whatever the
    preimage shape); a violation raises.
    """
    pair, levels = rule.pair, list(range(rule.quantizer.num_levels))
    channel = _build_channel(levels, rule.masses(pair.q0_cdf), rule.masses(pair.q1_cdf))
    if not llr_monotone_check(channel):
        raise RuntimeError("per-level LLR is not nondecreasing; quantizer is invalid")
    return channel


def channel_from_quantizer(
    q: Quantizer, pair: LfdPair, grid: np.ndarray | None = None
) -> SensorChannel:
    """:func:`channel_from_rule` of ``SensorRule(pair, q, grid)``."""
    return channel_from_rule(SensorRule(pair, q, grid))


def member_channel(
    member, rule: SensorRule, levels: tuple[int, ...] | None = None
) -> DiscretePmf:
    """Output law of a class member pushed through the sensor rule.

    ``member`` exposes ``cdf`` and is cut where the rule cuts the LFDs;
    a point-contaminated member's atom goes to the level of the segment
    that holds it. When ``levels`` restricts to a channel's kept level
    set, mass on dropped levels must be negligible.
    """
    contaminated = isinstance(member, ContaminatedGaussian)
    mass = rule.masses(member.nominal.cdf if contaminated else member.cdf)
    if contaminated:
        mass = (1.0 - member.eps) * mass
        mass[rule.level_of(member.atom)] += member.eps
    mass = np.maximum(mass, 0.0)
    levels = tuple(range(len(mass))) if levels is None else tuple(levels)
    lost = mass.sum() - mass[list(levels)].sum()
    if lost > 1e-12:
        raise ValueError(f"member places mass {lost:.3e} on levels dropped from the channel")
    return pmf_from_weights(levels, mass[list(levels)])


def default_quantizer(pair: LfdPair, num_thresholds: int) -> Quantizer:
    """Thresholds at equally spaced mixture quantiles of the robust LR.

    Places the d-th threshold at the LR value whose equal-mixture
    probability P[(Q0+Q1)/2 <= y] equals d / (D + 1).
    """
    if num_thresholds < 0:
        raise ValueError("num_thresholds must be >= 0")
    if num_thresholds == 0:
        return Quantizer(())
    lo, hi = pair.support
    mix_cdf = lambda y: 0.5 * (pair.q0_cdf(y) + pair.q1_cdf(y))
    thresholds = []
    for d in range(1, num_thresholds + 1):
        y = solve_increasing(mix_cdf, lo, hi, d / (num_thresholds + 1.0), tol=1e-12)
        thresholds.append(math.exp(float(pair.log_lr(y))))
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(
            "could not place distinct default thresholds (flat LR region); "
            "supply explicit thresholds or reduce the level count"
        )
    return Quantizer(tuple(thresholds))


def llr_monotone_check(ch: SensorChannel) -> bool:
    """True when the per-level LLR weights are nondecreasing."""
    return bool(np.all(ch.llr[1:] >= ch.llr[:-1]))


@dataclass(frozen=True, eq=False)
class RandomizedBinaryRule:
    """A randomized two-level sensor given by its acceptance probability.

    ``accept_prob(y)`` is the probability of transmitting level 1 on
    observation y; ``pmf0``/``pmf1`` are the Bernoulli output laws it
    induces under the least favorable pair. The rule itself is supplied by
    the caller (robust randomized designs come from outside this package);
    this type validates it and carries its induced laws to the
    admissibility check.
    """

    accept_prob: Callable[[float], float]
    pmf0: DiscretePmf
    pmf1: DiscretePmf

    @classmethod
    def from_accept_prob(cls, accept_prob, pair: LfdPair) -> "RandomizedBinaryRule":
        """Induce the Bernoulli laws of a randomized rule under an LFD pair.

        P[U = 1 | H_j] is the integral of accept_prob against the j-th
        density, by trapezoid on the pair's grid; accuracy is grid-limited
        for discontinuous rules. The acceptance probability must stay
        within [0, 1] everywhere probed.
        """
        xs = pair.grid()
        probs = np.asarray([float(accept_prob(float(y))) for y in xs])
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("accept_prob must map into [0, 1]")
        laws = []
        for logpdf in (pair.q0_logpdf, pair.q1_logpdf):
            density = np.exp(np.asarray(logpdf(xs)))
            p_one = min(max(trapezoid(xs, probs * density), 0.0), 1.0)
            laws.append(DiscretePmf((0, 1), np.array([1.0 - p_one, p_one])))
        return cls(accept_prob=accept_prob, pmf0=laws[0], pmf1=laws[1])

    def admissible(self) -> bool:
        return randomized_binary_admissible(self.pmf0, self.pmf1)


def randomized_binary_admissible(pmf0: DiscretePmf, pmf1: DiscretePmf) -> bool:
    """Admissibility of a randomized binary sensor from its induced laws.

    True iff q1(U=0) + q0(U=1) < 1 (strict). When admissible the two-level
    LLR is strictly increasing, which is re-asserted here.
    """
    if pmf0.levels != (0, 1) or pmf1.levels != (0, 1):
        raise ValueError("randomized binary laws must live on levels {0, 1}")
    q1_at_0 = float(pmf1.probs[0])
    q0_at_1 = float(pmf0.probs[1])
    admissible = q1_at_0 + q0_at_1 < 1.0
    if admissible:
        # cross-product form of llr(1) > llr(0), division-free
        if not pmf1.probs[1] * pmf0.probs[0] > pmf1.probs[0] * pmf0.probs[1]:
            raise RuntimeError("admissible laws must have strictly increasing LLR")
    return admissible


def block_sensor_llr(pair: LfdPair, observations: Sequence[float]) -> float:
    """Robust log-LR of a block of observations: the sum of per-sample values.

    Valid for censored-LR and mean-band pairs, where the product of the
    per-sample robust likelihood ratios retains the minimax property;
    divergence-ball (geometric-mixture) pairs are rejected because the
    product rule does not hold for them.
    """
    if pair.kind == "kl-dabak":
        raise ValueError("product rule invalid for divergence-ball classes")
    if pair.kind not in ("gaussian-band", "huber"):
        raise ValueError(f"unsupported pair kind for block sensing: {pair.kind!r}")
    obs = np.asarray(observations, dtype=float)
    if obs.size < 1:
        raise ValueError("need at least one observation")
    return float(np.sum(pair.log_lr(obs)))
