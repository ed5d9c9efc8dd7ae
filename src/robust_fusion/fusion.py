"""Fusion center: log-LR sum test, exact error probabilities, saddle-point
verification, threshold design and sensor-count sweeps.

The fusion rule adds the per-sensor LLR weights of the received levels and
compares against a log threshold (default log(prior0 / (1 - prior0))); ties
decide the null hypothesis, which makes every evaluation deterministic. A
sum counts as a tie when it is within ``TIE_TOL`` above the threshold, so
float rounding in the order of summation cannot move an outcome across it;
every path (convolution, enumeration, threshold search, Monte Carlo)
applies this one rule. Error probabilities are exact: the law of
the LLR sum (:class:`LlrSumLaw`) is held as two independent halves, each
the exact convolution of half the sensors' finite atom mass functions, and
one tail mass of their sum is read by a meet-in-the-middle search, so no
atom law larger than (D+1)^ceil(K/2) is built. Both hypotheses' sums sit on
the same atoms, so a law holds one support with an H0 and an H1 mass row,
sorted, merged and searched once for both. Results are cross-checked
against full enumeration when the joint level space is small enough: it
decides every joint level, but holds only the first K - 1 sensors' sums
and the decisions of one level of the last sensor at a time, never an
array of joint probabilities.

Threshold design is person-by-person: sweeps replace each sensor's LR
quantizer by its best response to the others, and Anderson steps on the log
thresholds extrapolate the sweeps; a step is taken only if it keeps every
sensor's thresholds in order inside its log-LR bracket and strictly lowers
the exact P_E. The design reports its sweeps and the steps it took.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import MASS_TOL, AtomPmf
from .lfd import CERTIFICATE_TOL, WITNESS_TOL, LfdPair
from .ordering import TIE_TOL, convolve, convolve_many
from .sensor import Quantizer, SensorChannel, _SensorPart, _sensor_part
from .sensor import _rule_channel, default_quantizer
from .sensor import channel_from_quantizer  # noqa: F401 (perfbench patches fusion's name)

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile
_AGREEMENT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """K sensors plus the fusion threshold; enough to evaluate exactly.

    Any valid channel is accepted: fusion reads only the channels' LLR
    values, so their output labels need not follow LLR order.
    """

    channels: tuple[SensorChannel, ...]
    prior0: float
    log_threshold: float | None = None

    def __post_init__(self) -> None:
        channels = tuple(self.channels)
        object.__setattr__(self, "channels", channels)
        if len(channels) < 1:
            raise ValueError("need at least one sensor channel")
        if not 0.0 < self.prior0 < 1.0:
            raise ValueError(f"prior0 must be in (0, 1), got {self.prior0}")
        if self.log_threshold is None:
            object.__setattr__(
                self, "log_threshold", math.log(self.prior0 / (1.0 - self.prior0))
            )
        elif math.isnan(self.log_threshold):
            raise ValueError("log_threshold must not be NaN")

    @property
    def num_sensors(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class ErrorReport:
    """False alarm, miss and Bayes error of one network evaluation."""

    p_false_alarm: float
    p_miss: float
    p_error: float
    method: str
    n: int | None = None
    seed: int | None = None
    ci_halfwidth: float | None = None


def _report(p_one: Sequence[float], prior0: float, method: str) -> ErrorReport:
    """The report of P(decide 1) under H0 and under H1 (``p_one``): P_F,
    P_M = 1 - P(decide 1 | H1) and P_E = prior0 * P_F + (1 - prior0) * P_M.
    Every report in this module is formed here. Rounding can put P_F or
    P_M just outside [0, 1] (tail sums above 1 at large K, the forced-1
    mass's difference of products below 0), so both are clamped into it and
    P_E is formed from the clamped values."""
    p_f, p_m = (min(max(float(p), 0.0), 1.0) for p in (p_one[0], 1.0 - p_one[1]))
    return ErrorReport(p_f, p_m, prior0 * p_f + (1.0 - prior0) * p_m, method)


def _decide_one(sums, has_pos, has_neg, tau):
    """The fusion rule on arrays of outcomes.

    A -inf level forces 0 (also against a +inf level: that event is
    jointly impossible), a +inf level forces 1, and otherwise the finite
    LLR sum decides 1 only above the tie band at ``tau``.
    """
    return ~has_neg & (has_pos | (sums > tau + TIE_TOL))


@dataclass(frozen=True, eq=False)
class LlrSumLaw:
    """Law of the fused LLR sum: two independent halves plus the forced-1 mass.

    Over the outcomes where every level has a finite LLR, the sum is
    ``left + right``, each half the fold of some of the sensors' finite
    parts. ``forced_one`` is the probability that some level has LLR +inf
    and none has -inf, which decides 1 at every threshold. With one mass
    row per level law (H0 and H1) on one support, it has one entry per row.
    """

    left: AtomPmf
    right: AtomPmf
    forced_one: float | np.ndarray

    def prob_decide_one(self, tau):
        """P[decide 1] at log threshold ``tau``, without building the sum.

        A left atom a decides 1 with every right atom above
        tau + TIE_TOL - a, so one ``searchsorted`` over the right half's
        atoms reads each left atom's share off the right half's tail sums.
        ``tau`` is a float, or an array of thresholds for an array of
        probabilities; mass rows share the search and give one each.
        """
        cut = (np.asarray(tau)[..., None] + TIE_TOL) - self.left.atoms
        at = self.right.atoms.searchsorted(cut, side="right")
        tails = _tail_sums(np.atleast_2d(self.right.masses))
        lefts = np.atleast_2d(self.left.masses)  # one row serves all
        p_one = np.array([
            f + np.dot(t[at], lefts[i % len(lefts)])
            for i, (f, t) in enumerate(zip(np.reshape(self.forced_one, -1), tails))
        ])
        if self.right.masses.ndim == 2:
            return p_one
        return float(p_one[0]) if np.ndim(tau) == 0 else p_one[0]


def _tail_sums(rows: np.ndarray) -> np.ndarray:
    """Each mass row's tail sums: the mass at and above each atom, then 0."""
    tails = np.zeros((len(rows), rows.shape[1] + 1))
    tails[:, :-1] = rows[:, ::-1].cumsum(axis=1)[:, ::-1]
    return tails


# the sum over no sensors: the left half of a one-sensor law
_POINT_ZERO = AtomPmf(np.zeros(1), np.ones(1))


# a sensor whose level surely has LLR +inf
_SURE_PLUS_INF = _SensorPart(AtomPmf._from_sorted(np.zeros(0), np.zeros(0)), 1.0, 0.0)


def _forced_one(parts: Sequence[_SensorPart]) -> float | np.ndarray:
    """P[some level has LLR +inf and none has -inf] over independent sensors:
    products in sensor order, as a loop from 1.0 forms them, one per mass
    row and per law of a batch part (:func:`_batch_part`), each as alone."""
    return math.prod(p.no_minus for p in parts) - math.prod(p.finite_mass for p in parts)


def _batch_part(parts: Sequence[_SensorPart]) -> _SensorPart:
    """One sensor's parts at several designs as one part: a batch of their
    finite laws (``AtomPmf.rows``; no rows for one part), their
    ``no_minus`` and ``finite_mass`` rows stacked, one per design."""
    sizes = [len(p.finite.atoms) for p in parts]
    atoms = np.concatenate([p.finite.atoms for p in parts])
    masses = np.concatenate([p.finite.masses for p in parts], axis=-1)
    rows = np.arange(len(parts)).repeat(sizes) if len(parts) > 1 else None
    return _SensorPart(
        AtomPmf._from_sorted(atoms, masses, rows),
        np.array([p.no_minus for p in parts]),
        np.array([p.finite_mass for p in parts]),
    )


def _fold(parts: Sequence[_SensorPart]) -> LlrSumLaw:
    """The LLR-sum law of one or more independent sensor parts, split at
    len(parts) // 2 into two halves, each folded in order."""
    half = len(parts) // 2
    left = convolve_many([part.finite for part in parts[:half]]) if half else _POINT_ZERO
    right = convolve_many([part.finite for part in parts[half:]])
    return LlrSumLaw(left, right, _forced_one(parts))


def _enumerate_decide_one(
    channels: Sequence[SensorChannel], log_threshold: float
) -> list[float]:
    """P[decide 1] under H0 and under H1, by visiting every joint level.

    The sums of the first K - 1 sensors are built once for both
    hypotheses; each level of the last sensor decides them, and the
    decisions are contracted with the other channels' (pmf0, pmf1) rows,
    the last of them first.
    """
    *firsts, last = channels
    rows = [np.array([ch.pmf0.probs, ch.pmf1.probs]) for ch in channels]
    sums, has_pos, has_neg = np.zeros(1), np.zeros(1, dtype=bool), np.zeros(1, dtype=bool)
    finite = all(np.all(np.isfinite(ch.llr)) for ch in firsts)
    for ch in firsts:
        sums = np.add.outer(sums, np.where(np.isfinite(ch.llr), ch.llr, 0.0)).ravel()
        if not finite:
            has_pos = np.logical_or.outer(has_pos, ch.llr == math.inf).ravel()
            has_neg = np.logical_or.outer(has_neg, ch.llr == -math.inf).ravel()
    p_one = np.zeros(2)
    for d, (llr, add) in enumerate(zip(last.llr, np.where(np.isfinite(last.llr), last.llr, 0.0))):
        pos, neg = has_pos | (llr == math.inf), has_neg | (llr == -math.inf)
        decided = _decide_one(sums + add, pos, neg, log_threshold)[None]
        for w in reversed(rows[:-1]):  # sum out the last remaining sensor
            decided = np.matmul(decided.reshape(len(decided), -1, w.shape[1]), w[..., None])[..., 0]
        p_one += rows[-1][:, d] * decided[:, 0]
    return p_one.tolist()


def exact_error(
    net: NetworkModel,
    method: str = "convolution",
    cross_check: bool = True,
    enumeration_limit: int = 10**6,
) -> ErrorReport:
    """Exact P_F, P_M, P_E of the network under its channels' own (least
    favorable) laws; :func:`saddle_verify` evaluates member laws.

    ``method`` picks the primary path: "convolution" reads the tail of the
    two half-convolutions of the channels' parts (an H0 and an H1 row) by
    meet-in-the-middle, "enumeration" visits every joint level. With
    ``cross_check`` the other path is also run when the joint level space
    has at most ``enumeration_limit`` points, and a disagreement beyond
    1e-10 raises.
    """
    if method not in ("convolution", "enumeration"):
        raise ValueError(f"unknown method {method!r}")
    joint_size = math.prod(len(ch.levels) for ch in net.channels)

    def report(how: str) -> ErrorReport:
        """The report of one reader."""
        if how == "enumeration":
            p_one = _enumerate_decide_one(net.channels, net.log_threshold)
            return _report(p_one, net.prior0, "enumeration")
        p_one = _fold([ch.part for ch in net.channels]).prob_decide_one(net.log_threshold)
        return _report(p_one, net.prior0, "exact-convolution")

    if method == "enumeration" and joint_size > enumeration_limit:
        raise ValueError("joint level space too large for enumeration")
    got = report(method)
    if cross_check and joint_size <= enumeration_limit:
        other = report("enumeration" if method == "convolution" else "convolution")
        pairs = ((got.p_false_alarm, other.p_false_alarm), (got.p_miss, other.p_miss))
        if any(abs(a - b) > _AGREEMENT_TOL for a, b in pairs):
            raise RuntimeError(
                "convolution and enumeration disagree beyond 1e-10: "
                "P_F {} vs {}, P_M {} vs {}".format(*pairs[0], *pairs[1])
            )
    return got


@dataclass(frozen=True)
class SaddleReport:
    """Outcome of certifying the saddle inequalities over member-law grids.

    ``dominance_ok`` is the per-sensor certificate of :func:`saddle_verify`,
    ``n_checked`` the member combinations it covers (both sides' whole
    grids) and ``worst_combo`` one member index per sensor.
    """

    holds: bool
    worst_side: str
    worst_combo: tuple[int, ...]
    worst_gap: float
    p_false_alarm_lfd: float
    p_miss_lfd: float
    dominance_ok: bool
    n_checked: int
    tol: float = CERTIFICATE_TOL


def saddle_verify(
    net: NetworkModel,
    member_laws0: Sequence[np.ndarray],
    member_laws1: Sequence[np.ndarray],
) -> SaddleReport:
    """Certify that the LFD laws are worst cases for the fixed rules.

    ``member_laws0``/``member_laws1`` hold one (members x levels) array per
    sensor, row r the law of member r on the channel's levels (as
    ``BuiltSensor.member_laws`` gives them); each is checked and read in C
    order by :func:`_member_rows`.

    The certificate is per sensor: in the order of the sensor's LLR
    values, every H0 member law must lie stochastically below ``pmf0`` and
    every H1 member law above ``pmf1`` (within ``CERTIFICATE_TOL``). That
    covers every member combination at every fusion threshold:
    :func:`_decide_one` is nondecreasing in each sensor's LLR, ±inf
    included, and the sensors are independent, so swapping the LFDs for
    members one sensor at a time never raises P_F (under H0) or P_M (under
    H1). Each sensor's members
    are checked at once, as cdf rows on the signed LLR ranks
    (:func:`_dominance_gaps`).

    ``worst_gap`` (P_LFD − P_member at the network's threshold, negative
    on a violation) comes from one pass per side: sensor by sensor, each
    member is tried with the earlier sensors at their chosen members and
    the later ones at the LFD, and the first member within
    ``WITNESS_TOL`` of the smallest gap is kept, so rounding noise does not
    pick the witness. P(decide 1) is linear in one sensor's level law, so
    each sensor folds the others once (:func:`_fuse_one_given_level`) and
    scores every member by one dot product; the gap kept at the previous
    sensor carries over, so an LFD member's gap stays exactly that gap. The
    two sides walk the sensors in lockstep, as the H0 and H1 mass rows of
    one fold, so each sensor's fold of the others serves both. A sensor
    whose one member per side is its channel's own law, bit for bit, adds
    exactly 0 and folds nothing.
    When each sensor's members are totally ordered (2-level sensors, band
    and contamination classes) this is the grid's minimum within
    ``WITNESS_TOL``; otherwise it is the gap of a real combination, not
    always the least.
    """
    if len(member_laws0) != net.num_sensors or len(member_laws1) != net.num_sensors:
        raise ValueError("need one member-law array per sensor and hypothesis")
    member_laws0 = [_member_rows(ch, rows) for ch, rows in zip(net.channels, member_laws0)]
    member_laws1 = [_member_rows(ch, rows) for ch, rows in zip(net.channels, member_laws1)]
    tau = net.log_threshold
    # row 0 holds the false-alarm side's current laws, row 1 the miss side's
    parts = [ch.part for ch in net.channels]
    lfd = _report(_fold(parts).prob_decide_one(tau), net.prior0, "exact-convolution")
    ranks = [np.unique(ch.llr, return_inverse=True)[1] for ch in net.channels]

    combos: tuple[list[int], list[int]] = ([], [])
    carried = [0.0, 0.0]  # the gap of each side's current combination
    dominance_ok = True
    for i, ch in enumerate(net.channels):
        laws = member_laws0[i], member_laws1[i]
        if all(np.array_equal(m, law.probs[None]) for m, law in zip(laws, (ch.pmf0, ch.pmf1))):
            for combo in combos:  # its own laws alone: gap terms exactly 0
                combo.append(0)
            continue
        a = _fuse_one_given_level(parts[:i] + parts[i + 1 :], ch.llr, np.array([tau]))[:, 0]
        chosen = []
        for h, (probs, sign) in enumerate(((member_laws0[i], 1), (member_laws1[i], -1))):
            current = (ch.pmf0, ch.pmf1)[h].probs
            gaps = carried[h] + sign * ((current - probs) @ a[h])
            j = int(np.flatnonzero(gaps <= np.min(gaps) + WITNESS_TOL)[0])
            combos[h].append(j)
            carried[h] = float(gaps[j])
            chosen.append(probs[j])
            # the LFD must dominate each member on the signed LLR ranks
            worst = _dominance_gaps(sign * ranks[i], current, probs)
            dominance_ok = dominance_ok and bool(np.all(worst <= CERTIFICATE_TOL))
        parts[i] = _sensor_part(ch.llr, np.array(chosen))
    # the miss side must be worse by more than rounding to replace the
    # false-alarm side, so mirror-image witnesses resolve to false-alarm
    h = int(carried[1] < carried[0] - WITNESS_TOL)
    return SaddleReport(
        holds=carried[h] >= -CERTIFICATE_TOL and dominance_ok,
        worst_side=("false-alarm", "miss")[h],
        worst_combo=tuple(combos[h]),
        worst_gap=carried[h],
        p_false_alarm_lfd=lfd.p_false_alarm,
        p_miss_lfd=lfd.p_miss,
        dominance_ok=dominance_ok,
        n_checked=math.prod(map(len, member_laws0)) + math.prod(map(len, member_laws1)),
    )


def _member_rows(ch: SensorChannel, rows) -> np.ndarray:
    """One sensor's member laws as a C-ordered (members x levels) float
    array, so no report depends on the caller's memory layout; raises
    ValueError unless there is at least one row, each row has the channel's
    level count, and each is a law: finite, nonnegative, summing to 1
    within ``MASS_TOL``."""
    probs = np.ascontiguousarray(rows, dtype=float)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError(
            "every sensor needs at least one member law per hypothesis, "
            "as a (members x levels) array"
        )
    if probs.shape[1] != len(ch.levels):
        raise ValueError(
            f"member laws have {probs.shape[1]} levels, the channel {len(ch.levels)}"
        )
    if not np.all(np.isfinite(probs) & (probs >= 0.0)):
        raise ValueError("member laws must be finite and nonnegative")
    if not np.all(np.abs(probs.sum(axis=1) - 1.0) <= MASS_TOL):
        raise ValueError(f"each member law must sum to 1 within {MASS_TOL}")
    return probs


def _dominance_gaps(key: np.ndarray, law: np.ndarray, members: np.ndarray) -> np.ndarray:
    """max over x of cdf_law(x) - cdf_member(x), one per row of ``members``.

    Level d sits at ``key[d]``: each law's masses are grouped by key, in
    increasing key order, and summed along the rows, so every member's cdf
    is one row. A gap at most 0 means the law is stochastically larger
    than the member on the keys.
    """
    order = np.argsort(key, kind="stable")
    ends = np.append(np.flatnonzero(np.diff(key[order])), len(key) - 1)
    cdf = np.cumsum(np.vstack([law, members])[:, order], axis=1)[:, ends]
    return np.max(cdf[0] - cdf[1:], axis=1)


@dataclass(frozen=True)
class DesignResult:
    """A threshold design and its exact error report.

    ``best_response_gain`` is the P_E that one further person-by-person
    sweep from this design gains, the certificate of person-by-person
    optimality; a converged design's last sweep gained less than 1e-12.
    ``sweeps`` counts the person-by-person sweeps of all starts,
    without that certificate sweep, and ``accelerated`` the extrapolated
    (Anderson) steps that passed the P_E safeguard and were taken.
    """

    quantizers: tuple[Quantizer, ...]
    log_threshold: float
    report: ErrorReport
    converged: bool
    best_response_gain: float
    sweeps: int
    accelerated: int


# a best response replies to this many fusion thresholds, the lowest-P_E
# candidates; for one sensor, or two with D <= 2, that is every candidate
_REPLY_TAUS = 16
# a design start stops after _MAX_SWEEPS sweeps, and extrapolates them
# from its last _ANDERSON_DEPTH (x, sweep(x)) pairs
_MAX_SWEEPS = 40
_ANDERSON_DEPTH = 3


def _fuse_one_given_level(
    others: Sequence[_SensorPart], llr: np.ndarray, taus: np.ndarray
) -> np.ndarray:
    """a[h, t, d] = P_h(fuse 1 | the sensor sends level d) at fusion threshold taus[t].

    ``llr`` is the sensor's per-level LLR and ``others`` are the other
    sensors' parts, each with an H0 and an H1 mass row (h = 0, 1). P(fuse 1)
    is linear in the sensor's level law, with a[h, t] as its coefficients.
    The others are folded once into an :class:`LlrSumLaw` (:func:`_fold`),
    so no fold of all of them is built. A finite level d reads that law at
    taus - llr[d]; a +inf level decides 1 unless another sensor sends -inf
    (the forced-1 mass of the others and a sure +inf), and a -inf level
    decides 0. With no others a level decides 1 iff its LLR is above the
    tie band, under both hypotheses.
    """
    taus = np.asarray(taus, dtype=float)
    if not others:
        return np.tile(llr > taus[:, None] + TIE_TOL, (2, 1, 1)).astype(float)
    law = _fold(others)
    a = np.zeros((2, len(taus), len(llr)))
    finite = np.isfinite(llr)
    a[..., finite] = law.prob_decide_one(taus[:, None] - llr[finite])
    a[..., llr == math.inf] = np.expand_dims(_forced_one([*others, _SURE_PLUS_INF]), (-2, -1))
    return a


def _envelope_cuts(
    a: np.ndarray, prior0: float, bracket: tuple[float, float], num: int
) -> list[tuple[float, ...]]:
    """Log thresholds of the sensor's Bayes reply to each fixed fusion map a[r].

    Level d costs prior0 * a[r, 0, d] - (1 - prior0) * L * a[r, 1, d] at LR
    value L, where a[r, h, d] = P_h(fuse 1 | level d). The reply sends each L
    to the cheapest level, so its thresholds are the breakpoints of the lower
    envelope of these lines, walked in all maps at once from the bracket's low
    end up; breakpoints outside the bracket are dropped. While fewer than
    ``num`` remain, the first widest log-LR cell between the bracket ends is
    split at its midpoint: a finer quantizer under a re-optimized fusion never
    raises P_E, and a collapsed sensor gets its levels back.
    """
    lo, hi = bracket
    rows = np.arange(len(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.array([prior0, 1.0 - prior0])[:, None, None]
        logs = np.log(weights * (a[:, :, None] - a[..., None]))
        cross = logs[:, 0] - logs[:, 1]  # [r, j, k]: where line k crosses line j
    cross[np.isnan(cross)] = -math.inf
    cross[a[:, 1, None] <= a[:, 1, :, None]] = math.inf  # line k is not steeper
    # lowest line at the low end; on a tie the steeper one, which stays lower
    cur = np.lexsort((-a[:, 1], prior0 * a[:, 0] - (1.0 - prior0) * a[:, 1] * math.exp(lo)))[:, 0]
    at = np.full(len(a), lo)  # at or past hi once a map's walk has ended
    found = np.full((len(a), a.shape[2] - 1), hi)
    for step in range(found.shape[1]):  # the current line gets steeper each step
        x = np.maximum(cross[rows, cur], at[:, None])
        cur = np.lexsort((-a[:, 1], x))[:, 0]  # on a tie the steeper line
        x = x[rows, cur]
        found[:, step] = np.where((at < x) & (x < hi), x, hi)
        at = x
    replies = []
    for cuts in found.tolist():
        cuts = [x for x in cuts if x < hi]
        while len(cuts) < num:
            edges = [lo, *cuts, hi]
            widths = [right - left for left, right in zip(edges, edges[1:])]
            k = widths.index(max(widths))
            cuts.insert(k, 0.5 * (edges[k] + edges[k + 1]))
        replies.append(tuple(cuts))
    return replies


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """``np.unique(a, axis=0)``, the distinct rows in lexicographic order, without numpy.ma."""
    a = a[np.lexsort(a.T[::-1])]
    return a[np.concatenate(([True], np.any(a[1:] != a[:-1], axis=1)))]


def _scan_rows(fold: AtomPmf, forced: np.ndarray, prior0: float) -> list:
    """The scan of each law of the batch ``fold`` (``AtomPmf.rows``; one law
    without rows), an H0 and an H1 mass row each, with forced-1 masses
    ``forced[r]``: its ``_REPLY_TAUS`` lowest-P_E (log fusion threshold,
    P_E) pairs, in stable order.

    Under the tie-to-null rule P_E changes only at atoms, so a law's
    candidate thresholds are its atoms and one below (0.0 alone without
    atoms), each read as :meth:`LlrSumLaw.prob_decide_one` reads a law
    whose left half is the point 0.
    """
    rows = np.zeros(len(fold.atoms), int) if fold.rows is None else fold.rows
    ends = np.bincount(rows, minlength=len(forced)).cumsum().tolist()
    scans = []
    for f, start, end in zip(forced, [0, *ends], ends):
        atoms = fold.atoms[start:end]
        candidates = np.concatenate((atoms[:1] - 1.0, atoms)) if len(atoms) else np.zeros(1)
        at = atoms.searchsorted(candidates + TIE_TOL, side="right")
        p_one = f[:, None] + _tail_sums(fold.masses[:, start:end])[:, at]
        p_e = prior0 * p_one[0] + (1.0 - prior0) * (1.0 - p_one[1])
        order = p_e.argsort(kind="stable")[:_REPLY_TAUS]
        scans.append((candidates[order], p_e[order]))
    return scans


class _ThresholdObjective:
    """P_E of a threshold configuration, minimized over the fusion threshold.

    Each sensor's log-LR bracket is read once (``brackets``), and the memos
    key log thresholds by their LR values (:meth:`_lrs`). One memo maps
    (sensor, LR thresholds) to that sensor's channel, which carries its
    LLR-sum part (an H0 and an H1 row), or to None for an invalid quantizer
    (thresholds out of order, or a falling per-level LLR), so each distinct
    sensor design is built once (:func:`~robust_fusion.sensor._rule_channel`,
    straight from its cuts), also when two log thresholds round to one LR
    value.
    A second memo maps a configuration's LR thresholds to its scan
    (:func:`_scan_rows`); the scans of one sensor's new replies are made in
    one batch (:meth:`_score_batch`), a configuration alone in a batch of
    one. Every value is bit-identical to building all K channels and
    folding each law from scratch, left to right in sensor order. A third
    maps (sensor, log thresholds) to its best response. The memos belong to
    the instance; ``optimize_thresholds`` makes one per call.
    """

    def __init__(self, pairs: Sequence[LfdPair], prior0: float):
        self.pairs = list(pairs)
        self.prior0 = prior0
        self.brackets = [pair.log_lr_range() for pair in self.pairs]
        self._built: dict[tuple[int, tuple[float, ...]], SensorChannel | None] = {}
        self._scans: dict[tuple, tuple[np.ndarray, np.ndarray] | None] = {}
        self._replies: dict[tuple, tuple] = {}

    @staticmethod
    def _lrs(log_thresholds: Sequence[float]) -> tuple[float, ...]:
        """The LR thresholds of ``log_thresholds``, the memos' key."""
        return tuple(math.exp(t) for t in log_thresholds)

    def build(self, i: int, log_thresholds: Sequence[float]) -> SensorChannel | None:
        """Sensor i at ``log_thresholds``; None when they are invalid."""
        return self._build(i, self._lrs(log_thresholds))

    def _build(self, i: int, lr: tuple[float, ...]) -> SensorChannel | None:
        """Sensor i at the LR thresholds ``lr``."""
        if (i, lr) not in self._built:
            self._built[i, lr] = _rule_channel(self.pairs[i], lr)
        return self._built[i, lr]

    def evaluate(self, all_log_thresholds: Sequence[Sequence[float]]) -> tuple[float, float]:
        """Returns (p_error, best log fusion threshold); inf when invalid."""
        lrs = [self._lrs(coords) for coords in all_log_thresholds]
        (scan,) = self._score(len(lrs) - 1, lrs, lrs[-1:])
        if scan is None:
            return math.inf, 0.0
        return float(scan[1][0]), float(scan[0][0])

    def _score(self, i: int, lrs: list[tuple[float, ...]], replies: list) -> list:
        """The scan (None when invalid) of the LR thresholds ``lrs`` with
        sensor i at each of the LR thresholds ``replies``."""
        keys = [(*lrs[:i], reply, *lrs[i + 1 :]) for reply in replies]
        todo = {key: reply for key, reply in zip(keys, replies) if key not in self._scans}
        if todo:
            self._scans.update(zip(todo, self._score_batch(i, lrs, list(todo.values()))))
        return [self._scans[key] for key in keys]

    def _score_batch(self, i: int, lrs: list[tuple[float, ...]], replies: list) -> list:
        """The scans of :meth:`_score`: the sensors other than i are built in
        order (the first invalid one makes every scan None), then the
        replies. The replies' parts are one batch part
        (:func:`_batch_part`) at sensor i, so the left fold
        ((p0 + p1) + replies) + p3 ... folds each reply as alone."""
        fixed = []
        for j, lr in enumerate(lrs):
            if j != i:
                fixed.append(self._build(j, lr))
                if fixed[-1] is None:
                    return [None] * len(replies)
        builds = [self._build(i, reply) for reply in replies]
        parts = [build.part for build in builds if build is not None]
        if not parts:
            return builds
        fixed = [build.part for build in fixed]
        parts = fixed[:i] + [_batch_part(parts)] + fixed[i:]
        fold = convolve_many([part.finite for part in parts])
        scans = iter(_scan_rows(fold, _forced_one(parts), self.prior0))
        return [None if build is None else next(scans) for build in builds]

    def best_response(
        self, i: int, all_log_thresholds: Sequence[Sequence[float]]
    ) -> tuple[float, float, tuple[float, ...]]:
        """Sensor i's best reply with the others fixed: (p_error, tau, its log thresholds).

        The current LLR test at a fusion threshold fixes a fusion map;
        against it the sensor's Bayes reply is an LR quantizer
        (:func:`_envelope_cuts`). Of the scan's candidates (every atom of
        the sum, and one below) the ``_REPLY_TAUS`` with the lowest current
        P_E are replied to, so the work per sensor does not grow with the
        sum's atom count, which is up to (D+1)^K. The distinct replies are
        scored exactly, in one batch (:meth:`_score`), and in order each is
        kept only if it strictly lowers P_E. The configuration must be valid.
        """
        conf = tuple(tuple(coords) for coords in all_log_thresholds)
        if (i, conf) in self._replies:
            return self._replies[i, conf]
        lrs = [self._lrs(coords) for coords in conf]
        ((taus, p_e),) = self._score(len(lrs) - 1, lrs, lrs[-1:])
        best = (float(p_e[0]), float(taus[0]), conf[i])
        builds = [self._build(j, lr) for j, lr in enumerate(lrs)]
        others = [b.part for b in builds[:i] + builds[i + 1 :]]
        llr = builds[i].llr
        a = _fuse_one_given_level(others, llr, taus)
        maps = _unique_rows(np.concatenate(a, axis=1)).reshape(-1, 2, len(llr))
        cuts = _envelope_cuts(maps, self.prior0, self.brackets[i], len(conf[i]))
        replies = [c for c in dict.fromkeys(cuts) if c != conf[i]]
        scans = self._score(i, lrs, [self._lrs(c) for c in replies])
        for reply, scan in zip(replies, scans):
            if scan is not None and scan[1][0] < best[0]:
                best = (float(scan[1][0]), float(scan[0][0]), reply)
        self._replies[i, conf] = best
        return best


def _sweep(objective: _ThresholdObjective, conf: list[list[float]]) -> tuple[float, float]:
    """One person-by-person sweep over the sensors in order; updates ``conf``.

    Returns (p_error, log fusion threshold) of the configuration it ends at.
    """
    for i in range(len(conf)):
        p_e, tau, coords = objective.best_response(i, conf)
        conf[i] = list(coords)
    return p_e, tau


def _anderson_step(xs: Sequence[np.ndarray], gs: Sequence[np.ndarray]) -> np.ndarray | None:
    """Type-II Anderson extrapolation from pairs (x_j, G(x_j)), oldest first.

    With residuals f = G(x) - x, returns G(x_k) - dG @ gamma, where gamma
    minimises ||f_k - dF @ gamma|| over the differences of consecutive
    pairs (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011). The columns of
    dF are orthonormalised by Gram-Schmidt from dot products, newest first,
    and dG takes the same column operations, so no matrix is factored. A
    difference whose part outside the newer ones' span is within 1e-8 of
    its residuals' size (zero, up to rounding) is dropped; with none left
    there is no step and None is returned.
    """
    fs = [g - x for x, g in zip(xs, gs)]
    basis: list[tuple[np.ndarray, np.ndarray]] = []
    for j in range(len(fs) - 1, 0, -1):
        df, dg = fs[j] - fs[j - 1], gs[j] - gs[j - 1]
        for q, qg in basis:
            c = q @ df
            df, dg = df - c * q, dg - c * qg
        norm = math.sqrt(df @ df)
        if norm <= 1e-8 * math.sqrt(max(fs[j] @ fs[j], fs[j - 1] @ fs[j - 1])):
            continue
        basis.append((df / norm, dg / norm))
    if not basis:
        return None
    step = gs[-1].copy()
    for q, qg in basis:
        step -= (q @ fs[-1]) * qg
    return step


class _Descent(NamedTuple):
    """Where one start of :func:`optimize_thresholds` ends, and its work."""

    conf: list[list[float]]
    p_error: float
    tau: float
    converged: bool
    sweeps: int
    accelerated: int


def _descend(objective: _ThresholdObjective, conf: list[list[float]]) -> _Descent:
    """One start of :func:`optimize_thresholds`: sweeps from ``conf`` with
    the safeguarded Anderson steps described there, on the flattened log
    thresholds. The P_E of the iterates never rises."""
    sizes = np.cumsum([len(coords) for coords in conf])[:-1]
    p_e, tau = objective.evaluate(conf)
    if p_e == math.inf:  # an invalid start: nothing to descend from
        return _Descent(conf, p_e, tau, True, 0, 0)
    xs: list[np.ndarray] = []
    gs: list[np.ndarray] = []
    sweeps = accelerated = 0
    while sweeps < _MAX_SWEEPS:
        swept = [list(coords) for coords in conf]
        swept_pe, swept_tau = _sweep(objective, swept)
        sweeps += 1
        if p_e - swept_pe < 1e-12:
            return _Descent(swept, swept_pe, swept_tau, True, sweeps, accelerated)
        if sweeps > 1:
            xs.append(np.concatenate(conf))
            gs.append(np.concatenate(swept))
            del xs[:-_ANDERSON_DEPTH], gs[:-_ANDERSON_DEPTH]
        conf, p_e, tau = swept, swept_pe, swept_tau
        if len(xs) < 2:
            continue
        step = _anderson_step(xs, gs)
        if step is not None:
            trial = [coords.tolist() for coords in np.split(step, sizes)]
            trial_pe, trial_tau = _screened_error(objective, trial)
            if trial_pe < p_e:
                conf, p_e, tau = trial, trial_pe, trial_tau
                accelerated += 1
                continue
        xs.clear()
        gs.clear()
    return _Descent(conf, p_e, tau, False, sweeps, accelerated)


def _screened_error(objective: _ThresholdObjective, conf: list[list[float]]) -> tuple[float, float]:
    """(p_error, log fusion threshold) of an extrapolated configuration; inf
    unless every sensor's log thresholds rise strictly inside its bracket
    and its channels build (a KL tail can break the LLR order)."""
    for coords, (lo, hi) in zip(conf, objective.brackets):
        if not lo < coords[0] < hi or not all(a < b < hi for a, b in zip(coords, coords[1:])):
            return math.inf, 0.0
    return objective.evaluate(conf)


def _starts(objective: _ThresholdObjective, num_levels: Sequence[int]) -> list[list[list[float]]]:
    """The initial log-threshold configurations of :func:`optimize_thresholds`:
    equal-mixture quantiles (unless refused), LR = 1 centered, and seeded
    random inside the objective's brackets, 0.1 (at most a quarter of the
    bracket) from each end."""
    rng = np.random.default_rng(0)
    margins = [min(0.1, (hi - lo) / 4) for lo, hi in objective.brackets]
    starts = [
        [[0.0] if d == 1 else list(np.linspace(-0.5, 0.5, d)) for d in num_levels],
        [
            sorted(float(v) for v in rng.uniform(lo + m, hi - m, size=d))
            for (lo, hi), m, d in zip(objective.brackets, margins, num_levels)
        ],
    ]
    try:
        quantizers = [default_quantizer(p, d) for p, d in zip(objective.pairs, num_levels)]
    except ValueError:  # a log-LR that turns between two quantiles
        return starts
    return [[[math.log(t) for t in q.thresholds] for q in quantizers], *starts]


def optimize_thresholds(
    pairs: Sequence[LfdPair],
    num_levels: Sequence[int],
    prior0: float,
) -> DesignResult:
    """Design sensor thresholds and the fusion threshold to minimize P_E.

    ``num_levels`` gives each sensor's threshold count, a whole number in
    1..4, for at most 10 sensors; ``prior0`` must lie in (0, 1). Invalid
    inputs raise ValueError before any design work.

    Person-by-person descent (Tsitsiklis 1993): each sweep replaces every
    sensor's quantizer, in turn, by its best response to the others and
    to the LLR fusion test, and the fusion threshold is re-chosen exactly
    by atom scanning; no step raises P_E. A best response scores its new
    replies in one batch, bit for bit as one at a time
    (:class:`_ThresholdObjective`); an invalid quantizer (thresholds out of
    order, or a falling per-level LLR) scores P_E = inf. It runs from three initial
    configurations: equal-mixture quantiles (skipped when
    :func:`default_quantizer` refuses them), LR = 1 centered, and seeded
    random. The sweeps converge only linearly, so each start extrapolates
    them: from its second sweep on it keeps its last three (x, sweep(x))
    pairs of log thresholds, and after each sweep tries the Anderson step
    (Walker & Ni 2011, :func:`_anderson_step`). The step is taken only if
    every sensor's thresholds stay strictly increasing inside its log-LR
    bracket, its channels build and its P_E is strictly below the sweep's;
    otherwise the start goes on from the sweep with no pairs kept, so no
    step raises P_E either. The objective is not convex, so the claim is
    person-by-person optimality, not a global optimum: no sensor can lower
    P_E alone by changing its LR quantizer. ``best_response_gain``
    certifies it, as the P_E one further sweep from the returned design
    gains. A start stops once a sweep improves P_E by less than 1e-12;
    non-convergence within 40 sweeps (Anderson steps not counted) returns
    best-found with a warning that names how many starts hit the limit, and
    ``converged=False``.
    """
    if not pairs or len(pairs) != len(num_levels):
        raise ValueError("need at least one sensor, and one threshold count per sensor")
    num_levels = _whole_numbers(num_levels, "threshold counts")
    if len(pairs) > 10 or not all(1 <= d <= 4 for d in num_levels):
        raise ValueError(f"designed for K <= 10 sensors with 1 to 4 thresholds each: {num_levels}")
    if not 0.0 < prior0 < 1.0:
        raise ValueError(f"prior0 must be in (0, 1), got {prior0}")
    objective = _ThresholdObjective(pairs, prior0)
    descents = [_descend(objective, conf) for conf in _starts(objective, num_levels)]
    best = min(descents, key=lambda descent: descent.p_error)  # the first on a tie
    if not best.converged:
        stuck = sum(not descent.converged for descent in descents)
        warnings.warn(
            f"threshold optimizer hit the sweep limit on {stuck} of {len(descents)} starts; "
            "returning best found"
        )
    best_response_gain = best.p_error - _sweep(objective, [list(c) for c in best.conf])[0]
    quantizers = tuple(Quantizer(objective._lrs(coords)) for coords in best.conf)
    channels = tuple(objective.build(i, coords) for i, coords in enumerate(best.conf))
    net = NetworkModel(channels, prior0, best.tau)
    report = exact_error(net)
    return DesignResult(
        quantizers=quantizers,
        log_threshold=best.tau,
        report=report,
        converged=best.converged,
        best_response_gain=best_response_gain,
        sweeps=sum(descent.sweeps for descent in descents),
        accelerated=sum(descent.accelerated for descent in descents),
    )


def _whole_numbers(values: Sequence, what: str) -> list[int]:
    """``values`` as ints; ValueError unless each is a whole number."""
    values = list(values)
    try:
        counts = [int(v) for v in values]
    except (TypeError, ValueError, OverflowError):  # not a number, NaN or inf
        counts = None
    if counts != values:
        raise ValueError(f"{what} must be whole numbers, got {values}")
    return counts


def k_sweep(
    template: SensorChannel,
    ks: Sequence[int],
    prior0: float,
    log_threshold: float | None = None,
) -> list[tuple[int, ErrorReport]]:
    """Exact P_E of K identical sensors for each K in ``ks``.

    The template must be informative (pmf0 != pmf1); the resulting decay
    of P_E with K is what the sweep exists to expose. Cross-checking is
    left to callers (the convolution path is exact on its own).

    One fold for both hypotheses (entry j: the j-fold sum of the template's
    finite part, an H0 and an H1 row) grows only as far as the largest K
    needs, and K reads its halves off entries K // 2 and K - K // 2. Those
    are the halves :func:`_fold` makes of K copies of the template's part,
    so each report equals ``exact_error`` of the K-sensor network with
    ``cross_check=False``. Counts run in ascending order, so entries below
    K // 2 are dropped. The products of :func:`_forced_one` over K sensors
    are row K - 1 of one cumulative product of the template's factors.
    """
    if np.max(np.abs(template.pmf0.probs - template.pmf1.probs)) <= 1e-12:
        raise ValueError("uninformative sensor template: pmf0 equals pmf1")
    ks = _whole_numbers(ks, "sensor counts")
    if any(k < 1 for k in ks):
        raise ValueError("sensor counts must be >= 1")
    net = NetworkModel((template,), prior0, log_threshold)
    part = template.part
    fold = [_POINT_ZERO, part.finite]
    products = np.cumprod([np.array([part.no_minus, part.finite_mass])] * max(ks), axis=0)
    reports = {}
    for k in sorted(set(ks)):
        half = k // 2
        while len(fold) <= k - half:
            fold.append(convolve(fold[-1], part.finite))
        law = LlrSumLaw(fold[half], fold[k - half], products[k - 1, 0] - products[k - 1, 1])
        reports[k] = _report(law.prob_decide_one(net.log_threshold), net.prior0, "exact-convolution")
        fold[:half] = [None] * half
    return [(k, reports[k]) for k in ks]


def monte_carlo(net: NetworkModel, n: int, seed: int) -> ErrorReport:
    """Monte Carlo estimate of the network error probabilities.

    Levels are sampled directly from the channels' own (least favorable)
    laws, equal in law to sampling observations and quantizing. The generator is PCG64 seeded
    with ``seed`` and split per hypothesis, so reports are reproducible
    bit-for-bit. ``ci_halfwidth`` is a 99% half-width for p_error.
    """
    if n < 10**4:
        raise ValueError("need at least 1e4 samples for calibrated estimates")
    rng0, rng1 = np.random.default_rng(seed).spawn(2)

    def decide_rate(h, rng) -> float:
        sums = np.zeros(n)
        has_pos = np.zeros(n, dtype=bool)
        has_neg = np.zeros(n, dtype=bool)
        for ch in net.channels:
            idx = rng.choice(len(ch.levels), size=n, p=(ch.pmf0, ch.pmf1)[h].probs)
            vals = ch.llr[idx]
            has_pos |= vals == math.inf
            has_neg |= vals == -math.inf
            sums += np.where(np.isfinite(vals), vals, 0.0)
        return float(np.mean(_decide_one(sums, has_pos, has_neg, net.log_threshold)))

    report = _report((decide_rate(0, rng0), decide_rate(1, rng1)), net.prior0, "monte-carlo")
    hw_f = Z_99 * math.sqrt(report.p_false_alarm * (1.0 - report.p_false_alarm) / n)
    hw_m = Z_99 * math.sqrt(report.p_miss * (1.0 - report.p_miss) / n)
    hw_e = math.hypot(net.prior0 * hw_f, (1.0 - net.prior0) * hw_m)
    return replace(report, n=n, seed=seed, ci_halfwidth=hw_e)
