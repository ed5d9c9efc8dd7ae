"""Sensor decision rules: robust-LR front end, multilevel quantization,
per-level LLR weights, and randomized-binary admissibility.

A sensor maps its observation through the robust likelihood ratio and
quantizes that value with strictly increasing thresholds into levels
0..D. The per-level LLR weights are conditional expectations of the LR
over the threshold intervals, hence automatically nondecreasing in the
level; this module computes them exactly and enforces that property as a
postcondition. A :class:`SensorRule` cuts the observation axis once per
(pair, quantizer), with :func:`~robust_fusion.lfd.cut_log_lr` at the logs
of the LR thresholds; the LFD channel, every class member's law and every
point atom are read off those cuts by one mass function
(:func:`~robust_fusion.lfd.level_masses`), so all pass through one fixed
rule. The pair's two laws are read in one call (:func:`channel_from_rule`),
a class's members all at once (:func:`member_laws`, one row per member).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from ._roots import solve_newton
from .distributions import MASS_TOL, AtomPmf, DiscretePmf, _check_law, _unchecked
from .lfd import LfdPair, cut_log_lr, level_masses


@dataclass(frozen=True)
class Quantizer:
    """Strictly increasing thresholds on the likelihood-ratio axis.

    D = len(thresholds) thresholds partition the LR axis into D + 1 output
    levels 0..D, left-closed: level d covers t_{d-1} <= LR < t_d, so an LR
    on a threshold goes to the level above. An empty threshold tuple is the
    single-level (uninformative) quantizer.
    """

    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        thresholds = tuple(float(t) for t in self.thresholds)
        object.__setattr__(self, "thresholds", thresholds)
        if any(math.isnan(t) for t in thresholds):
            raise ValueError(f"thresholds must not be NaN, got {thresholds}")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")

    @property
    def num_levels(self) -> int:
        return len(self.thresholds) + 1


@dataclass(frozen=True, eq=False)
class SensorChannel:
    """Per-hypothesis output laws of one sensor and its derived LLR weights.

    ``llr`` is always log pmf1 - log pmf0, level by level (+/-inf where one
    law has no mass). The labels need not follow LLR order: every fusion
    path reads only LLR values, so a channel evaluates exactly like its
    LLR-sorted relabeling. ``part`` is the channel's share of an LLR sum
    under its own laws (an H0 and an H1 mass row), built on first use.
    """

    pmf0: DiscretePmf
    pmf1: DiscretePmf
    llr: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.pmf0.levels != self.pmf1.levels:
            raise ValueError("pmf0 and pmf1 must share the same level set")
        if np.any((self.pmf0.probs == 0.0) & (self.pmf1.probs == 0.0)):
            raise ValueError("levels with zero mass under both hypotheses must be dropped")
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "llr", np.log(self.pmf1.probs) - np.log(self.pmf0.probs))

    @cached_property
    def part(self) -> "_SensorPart":
        return _sensor_part(self.llr, np.array([self.pmf0.probs, self.pmf1.probs]))

    @property
    def levels(self) -> tuple[int, ...]:
        return self.pmf0.levels

    def llr_of(self, level: int) -> float:
        try:
            return float(self.llr[self.levels.index(level)])
        except ValueError:
            raise ValueError(f"level {level} not in channel levels {self.levels}") from None


class _SensorPart(NamedTuple):
    """One sensor's share of an LLR-sum law (``fusion.LlrSumLaw``), per level law (mass row)."""

    finite: AtomPmf  # the finite-LLR levels as atoms
    no_minus: float | np.ndarray  # probability of a level that is not -inf
    finite_mass: float | np.ndarray  # probability of a finite-LLR level


def _sensor_part(llr: np.ndarray, probs: np.ndarray) -> _SensorPart:
    """The part of a sensor with per-level LLRs ``llr`` and level law(s) ``probs``,
    rows gathered in C order; strictly rising finite LLRs skip the sort."""
    finite = np.isfinite(llr)
    atoms, masses = llr[finite], probs.compress(finite, axis=-1)
    rising = (atoms[1:] > atoms[:-1]).all()
    law = AtomPmf._from_sorted(atoms, masses) if rising else AtomPmf(atoms, masses)
    no_minus = 1.0 - probs.compress(llr == -math.inf, axis=-1).sum(axis=-1)
    return _SensorPart(law, no_minus, law.total_mass)


def _build_channel(levels: Sequence[int], masses) -> SensorChannel:
    """The channel of per-level ``masses``, an H0 and an H1 row: a batch of
    one of :func:`_build_channels`."""
    return next(_build_channels(levels, np.asarray(masses, dtype=float)[None]))


def _build_channels(levels: Sequence[int], masses: np.ndarray):
    """The channel of each (H0, H1) pair of per-level mass rows in
    ``masses``, in order: clipped at 0, less the levels with zero mass under
    both (with a warning). Each row is checked once as a law, so the laws
    and channels skip their constructors' checks. A channel whose LLRs are
    finite and strictly rising gets its part here, as :func:`_sensor_part`
    would make it."""
    masses = np.maximum(masses, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # a dropped level's LLR is NaN
        logs = np.log(masses)
        llrs = logs[:, 1] - logs[:, 0]
    totals = np.add.reduce(masses, axis=-1)  # as ndarray.sum, without its wrapper
    # _check_law's test for every row at once (clipped, only a NaN is negative)
    laws = (abs(totals - 1.0) <= MASS_TOL).tolist()
    rising = np.logical_and.reduce(llrs[:, 1:] > llrs[:, :-1], axis=1)
    plain = (np.logical_and.reduce(np.isfinite(llrs), axis=1) & rising).tolist()
    keeps = np.logical_or.reduce(masses, axis=1)
    levels, ones = tuple(int(l) for l in levels), np.ones(2)
    for rows, llr, keep, full, law, total, part in zip(
        masses, llrs, keeps, keeps.tolist(), laws, totals, plain
    ):
        kept, law = levels, all(law)
        if not all(full):
            dropped = [l for l, k in zip(levels, keep) if not k]
            msg = f"dropping levels {dropped} with zero mass under both hypotheses"
            warnings.warn(msg, RuntimeWarning, stacklevel=4)
            kept = tuple(l for l, k in zip(levels, keep) if k)
            rows, llr, law = rows[:, keep], llr[keep], False
        if not law:  # raises, or passes the kept levels
            for row in rows:
                _check_law(row)
        pmf0 = _unchecked(DiscretePmf, levels=kept, probs=rows[0])
        pmf1 = _unchecked(DiscretePmf, levels=kept, probs=rows[1])
        channel = _unchecked(SensorChannel, pmf0=pmf0, pmf1=pmf1, llr=llr)
        if part:  # cached as SensorChannel.part caches it
            channel.__dict__["part"] = _SensorPart(AtomPmf._from_sorted(llr, rows), ones, total)
        yield channel


def channel_from_pmfs(pmf0: DiscretePmf, pmf1: DiscretePmf) -> SensorChannel:
    """Channel from explicitly given per-hypothesis output laws, in any label order."""
    if pmf0.levels != pmf1.levels:
        raise ValueError("pmf0 and pmf1 must share the same level set")
    return _build_channel(pmf0.levels, np.array([pmf0.probs, pmf1.probs]))


@dataclass(frozen=True, eq=False)
class SensorRule:
    """One sensor's quantizer written on the observation axis.

    ``cuts`` and ``segment_levels`` are :func:`~robust_fusion.lfd.cut_log_lr`
    of the pair at the logs of the quantizer's LR thresholds (-inf for a
    threshold <= 0): the segment between ``cuts[i-1]`` (inclusive) and
    ``cuts[i]`` has output level ``segment_levels[i]``, and level d holds
    {t_(d-1) <= LR < t_d}. A clipped-affine log-LR has one closed-form cut
    per threshold, segment d being level d; a quadratic one is cut at every
    crossing of every threshold.
    """

    pair: LfdPair
    quantizer: Quantizer
    cuts: tuple[float, ...] = field(init=False)
    segment_levels: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        log_t = [math.log(t) if t > 0.0 else -math.inf for t in self.quantizer.thresholds]
        cuts, levels = cut_log_lr(self.pair, log_t)
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "segment_levels", levels)


def channel_from_rule(rule: SensorRule) -> SensorChannel:
    """Push the rule's LFD pair through its quantizer on the robust-LR axis.

    Level probabilities are the masses of the pair's laws under the rule,
    exact cdf differences between observation-axis cuts.

    Levels with zero mass under both LFDs are dropped with a warning;
    levels with zero mass under exactly one keep a +/-inf LLR sentinel.
    The per-level LLR must come out nondecreasing (the weight of level d
    is the LR's conditional mean over [t_{d-1}, t_d), whatever the
    preimage shape); a violation raises.
    """
    return _channels_from_rules([rule])[0]


def _channels_from_rules(rules: Sequence[SensorRule]) -> list[SensorChannel]:
    """:func:`channel_from_rule` of each rule, all of one pair and level
    count, from one :func:`~robust_fusion.lfd.level_masses` read with a cut
    row per rule (+inf pads a short row); the rules are checked in order,
    and the first that fails raises."""
    pair, levels = rules[0].pair, range(rules[0].quantizer.num_levels)
    width = max(len(rule.cuts) for rule in rules)
    cuts, segments = [], []
    for rule in rules:
        pad = width - len(rule.cuts)
        cuts.append(rule.cuts + (math.inf,) * pad)
        segments.append(rule.segment_levels.tolist() + rule.segment_levels[-1:].tolist() * pad)
    channels = []
    for channel in _build_channels(levels, level_masses([pair.q0, pair.q1], cuts, segments, len(levels))):
        if not llr_monotone_check(channel):
            raise RuntimeError("per-level LLR is not nondecreasing; quantizer is invalid")
        channels.append(channel)
    return channels


def channel_from_quantizer(q: Quantizer, pair: LfdPair, grid: None = None) -> SensorChannel:
    """:func:`channel_from_rule` of ``SensorRule(pair, q)``. ``grid`` must be
    None; it is kept only for the benchmark's span hooks, until ROADMAP item 13."""
    if grid is not None:
        raise ValueError("no log-LR is cut on a grid; grid must be None")
    return channel_from_rule(SensorRule(pair, q))


def member_laws(
    members: Sequence, rule: SensorRule, levels: Sequence[int] | None = None
) -> np.ndarray:
    """Output laws of class members pushed through the sensor rule, one
    C-ordered row per member.

    The members are read together by :func:`~robust_fusion.lfd.level_masses`
    at the rule's cuts, the same cuts and the same mass function as the
    LFDs: a point-contaminated member's atom goes to the level of the
    segment that holds it, an atom on a cut to the segment above. Each row
    is clipped at 0 and normalized. When ``levels`` restricts to a
    channel's kept level set, mass on dropped levels must be negligible.
    """
    mass = level_masses(members, rule.cuts, rule.segment_levels, rule.quantizer.num_levels)
    mass = np.maximum(mass, 0.0)
    levels = range(mass.shape[1]) if levels is None else levels
    # C order: each row sums as that row alone would, whatever the count
    kept = np.ascontiguousarray(mass[:, list(levels)])
    total = kept.sum(axis=1)
    lost = mass.sum(axis=1) - total
    if np.any(lost > 1e-12):
        raise ValueError(
            f"member places mass {np.max(lost):.3e} on levels dropped from the channel"
        )
    return kept / total[:, None]


def default_quantizer(pair: LfdPair, num_thresholds: int) -> Quantizer:
    """Thresholds at the LR of equally spaced mixture quantiles of y.

    Places the d-th threshold at LR(y_d), where y_d is the observation
    whose equal-mixture probability P[(Q0+Q1)/2 <= y_d] equals d / (D + 1).
    Newton steps on the mixture's cdf and density solve them together
    (:func:`~robust_fusion._roots.solve_newton`). These are mixture quantiles of the robust LR itself only when the
    log-LR is nondecreasing; a quadratic one (unequal-variance KL pair)
    maps the y-quantiles to other LR values, and when the quantiles
    straddle its turning point the LRs are not increasing, which raises
    ValueError. So does a flat LR region, where two thresholds tie.
    """
    if num_thresholds < 0:
        raise ValueError("num_thresholds must be >= 0")
    if num_thresholds == 0:
        return Quantizer(())
    q0, q1 = pair.q0, pair.q1
    mix_cdf = lambda y: 0.5 * (q0.cdf(y) + q1.cdf(y))
    mix_pdf = lambda y: 0.5 * (q0.pdf(y) + q1.pdf(y))
    targets = [d / (num_thresholds + 1.0) for d in range(1, num_thresholds + 1)]
    ys = solve_newton(mix_cdf, mix_pdf, *pair.support, targets)
    thresholds = [math.exp(v) for v in pair.log_lr(np.array(ys)).tolist()]
    steps = list(zip(thresholds, thresholds[1:]))
    if any(b < a for a, b in steps):
        raise ValueError(
            "could not place increasing default thresholds: the log-LR is not "
            "monotone in y, and LR(y_d) falls between mixture quantiles that "
            "straddle its turning point; supply explicit thresholds or "
            "reduce the level count"
        )
    if any(b == a for a, b in steps):
        raise ValueError(
            "could not place distinct default thresholds (flat LR region); "
            "supply explicit thresholds or reduce the level count"
        )
    return Quantizer(tuple(thresholds))


def llr_monotone_check(ch: SensorChannel) -> bool:
    """True when the per-level LLR weights are nondecreasing."""
    return bool((ch.llr[1:] >= ch.llr[:-1]).all())


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
