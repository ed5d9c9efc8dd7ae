"""Sensor decision rules: robust-LR front end, multilevel quantization,
and per-level LLR weights.

A sensor maps its observation through the robust likelihood ratio and
quantizes that value with strictly increasing thresholds into levels
0..D. The per-level LLR weights are conditional expectations of the LR
over the threshold intervals, hence automatically nondecreasing in the
level; this module computes them exactly and enforces that property as a
postcondition. A :class:`SensorRule` cuts the observation axis once per
(pair, quantizer), with :func:`~robust_fusion.lfd.cut_log_lr` at the logs
of the LR thresholds; the LFD channel and every class member's law are
read off those cuts as cdf differences summed by level, so all pass
through one fixed rule. The pair's two laws are read through
their scalar cdf (:func:`channel_from_rule`), a class's members all at
once by :func:`~robust_fusion.lfd.level_masses` (:func:`member_laws`, one
row per member), with the same bits.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from ._roots import solve_newton
from .distributions import MASS_TOL, AtomPmf, DiscretePmf, _check_law, _unchecked
from .lfd import LfdPair, _cdf_masses, cut_log_lr, level_masses


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
        fault = _threshold_fault(thresholds)
        if fault:
            raise ValueError(fault)

    @property
    def num_levels(self) -> int:
        return len(self.thresholds) + 1


def _threshold_fault(thresholds: tuple[float, ...]) -> str | None:
    """Why ``thresholds`` are no :class:`Quantizer`'s (a NaN, or not strictly
    increasing), or None when they are one's."""
    if any(math.isnan(t) for t in thresholds):
        return f"thresholds must not be NaN, got {thresholds}"
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        return "thresholds must be strictly increasing"
    return None


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


def _channel(levels: Sequence[int], masses, ordered=True, warn=False) -> SensorChannel | None:
    """The channel of per-level ``masses``, an H0 and an H1 row: clipped at
    0, less the levels with zero mass under both (with a warning if
    ``warn``); None when ``ordered`` and its per-level LLR falls. The rows
    are checked once as laws, so the laws and the channel skip their
    constructors' checks. A channel whose LLRs are finite and strictly
    rising gets its part here, as :func:`_sensor_part` would make it."""
    rows = np.maximum(masses, 0.0)
    totals = np.add.reduce(rows, axis=1)  # as ndarray.sum, without its wrapper
    (t0, t1), (r0, r1) = totals.tolist(), rows.tolist()
    # _check_law's test of both rows (clipped, only a NaN is negative)
    law = abs(t0 - 1.0) <= MASS_TOL and abs(t1 - 1.0) <= MASS_TOL
    keep = [a != 0.0 or b != 0.0 for a, b in zip(r0, r1)]
    levels, full = tuple(levels), all(keep)
    if not full:
        if warn:
            dropped = [l for l, k in zip(levels, keep) if not k]
            msg = f"dropping levels {dropped} with zero mass under both hypotheses"
            warnings.warn(msg, RuntimeWarning, stacklevel=3)
        levels = tuple(l for l, k in zip(levels, keep) if k)
        rows, law = rows[:, keep], False
    if not law:  # raises, or passes the kept levels
        for row in rows:
            _check_law(row)
    # log 0 = -inf gives a +/-inf LLR; its warning is silenced only where a mass is 0
    with np.errstate(divide="ignore") if 0.0 in r0 or 0.0 in r1 else nullcontext():
        logs = np.log(rows)
    llr = logs[1] - logs[0]
    values = llr.tolist()
    steps = list(zip(values, values[1:]))
    if ordered and any(b < a for a, b in steps):
        return None
    pmf0 = _unchecked(DiscretePmf, levels=levels, probs=rows[0])
    pmf1 = _unchecked(DiscretePmf, levels=levels, probs=rows[1])
    channel = _unchecked(SensorChannel, pmf0=pmf0, pmf1=pmf1, llr=llr)
    # strictly rising from a finite first to a finite last LLR: all finite
    if full and -math.inf < values[0] and values[-1] < math.inf and all(b > a for a, b in steps):
        # cached as SensorChannel.part caches it
        channel.__dict__["part"] = _SensorPart(AtomPmf._from_sorted(llr, rows), np.ones(2), totals)
    return channel


def channel_from_pmfs(pmf0: DiscretePmf, pmf1: DiscretePmf) -> SensorChannel:
    """Channel from explicitly given per-hypothesis output laws, in any label
    order; levels with zero mass under both are dropped with a warning."""
    if pmf0.levels != pmf1.levels:
        raise ValueError("pmf0 and pmf1 must share the same level set")
    return _channel(pmf0.levels, np.array([pmf0.probs, pmf1.probs]), ordered=False, warn=True)


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
        cuts, levels = _rule_cuts(self.pair, self.quantizer.thresholds)
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "segment_levels", levels)


def _rule_cuts(pair: LfdPair, thresholds: Sequence[float]) -> tuple[tuple[float, ...], np.ndarray]:
    """:func:`~robust_fusion.lfd.cut_log_lr` of the pair at the logs of the
    LR ``thresholds``, -inf for a threshold <= 0."""
    return cut_log_lr(pair, [math.log(t) if t > 0.0 else -math.inf for t in thresholds])


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
    levels = range(rule.quantizer.num_levels)
    masses = _cdf_masses((rule.pair.q0, rule.pair.q1), rule.cuts, rule.segment_levels, len(levels))
    channel = _channel(levels, masses, warn=True)
    if channel is None:
        raise RuntimeError("per-level LLR is not nondecreasing; quantizer is invalid")
    return channel


def _rule_channel(pair: LfdPair, thresholds: tuple[float, ...]) -> SensorChannel | None:
    """:func:`channel_from_rule` of ``SensorRule(pair, Quantizer(thresholds))``
    without either object or a warning; None where the thresholds are no
    quantizer's or the per-level LLR falls."""
    if _threshold_fault(thresholds):
        return None
    cuts, segment_levels = _rule_cuts(pair, thresholds)
    levels = range(len(thresholds) + 1)
    return _channel(levels, _cdf_masses((pair.q0, pair.q1), cuts, segment_levels, len(levels)))


def channel_from_quantizer(q: Quantizer, pair: LfdPair, grid: None = None) -> SensorChannel:
    """:func:`channel_from_rule` of ``SensorRule(pair, q)``. ``grid`` must be
    None; it is kept only for the benchmark's span hooks, until ROADMAP item 16."""
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
    LFDs. Each row is clipped at 0 and normalized. When ``levels`` restricts to a
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
